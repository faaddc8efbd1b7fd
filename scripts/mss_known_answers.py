#!/usr/bin/env python3
"""An independent derivation of `mss::tests::key_material_known_answers`.

Writes the signature scheme out from the module docs of `swap-crypto`'s
`wots`, `merkle` and `mss` over Python's `hashlib`/`hmac` — no line shared
with the Rust — and prints the Merkle root, the address and three
signature digests of the height-6 identity seeded with `[9; 32]`: leaf 0's
signature over `SHA-256(0x00)`, then leaf 1's over the all-zero digest (a
signer walks 2 chains, a verifier all 67) and over the all-`0xff` digest
(a signer walks 64 chains of 15 steps, a verifier 3). The test pins those
five values; run this when the scheme changes on purpose, never to make
the test pass.

Usage: python3 scripts/mss_known_answers.py
"""

import hashlib
import hmac
import struct

CHAINS, TOP, STEP_TAG = 67, 15, b"swap/wots16/v1"


def sha256(data):
    return hashlib.sha256(data).digest()


def tagged(tag, data):
    return sha256(bytes([len(tag)]) + tag + data)


def walk(value, chain, start, end):
    for position in range(start, end):
        value = sha256(value + bytes([chain, position]) + STEP_TAG)
    return value


def head(seed, leaf, chain):
    message = b"wots/sk" + struct.pack(">Q", leaf * CHAINS + chain)
    return hmac.new(seed, message, hashlib.sha256).digest()


def digits(message):
    nibbles = [d for byte in message for d in (byte >> 4, byte & 15)]
    checksum = sum(TOP - d for d in nibbles)
    return nibbles + [checksum >> 8, (checksum >> 4) & 15, checksum & 15]


def main():
    seed, height = bytes([9]) * 32, 6
    levels = [
        [
            tagged(
                b"swap/merkle/leaf/v1",
                sha256(b"".join(walk(head(seed, i, j), j, 0, TOP) for j in range(CHAINS))),
            )
            for i in range(1 << height)
        ]
    ]
    while len(levels[-1]) > 1:
        below = levels[-1]
        levels.append(
            [
                tagged(b"swap/merkle/node/v1", below[i] + below[i + 1])
                for i in range(0, len(below), 2)
            ]
        )
    root = levels[-1][0]

    def signature(leaf, message):
        signed = digits(message)
        values = [walk(head(seed, leaf, j), j, 0, signed[j]) for j in range(CHAINS)]
        siblings = [level[(leaf >> depth) ^ 1] for depth, level in enumerate(levels[:-1])]
        index = struct.pack(">Q", leaf)
        return sha256(index + sha256(b"".join(values)) + index + b"".join(siblings))

    print("root        ", root.hex())
    print("address     ", tagged(b"swap/address/v1", root).hex())
    print("signature   ", signature(0, sha256(bytes([0]))).hex())
    print("signature-00", signature(1, bytes(32)).hex())
    print("signature-ff", signature(1, bytes([0xFF]) * 32).hex())


if __name__ == "__main__":
    main()
