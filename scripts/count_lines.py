#!/usr/bin/env python3
"""The ruler for ROADMAP aims 2 and 3: how much non-test Rust each member
crate carries, how wide its public surface is, and how many panic sites it
holds.

Per crate under `crates/`, prints

* `lines` — non-blank lines of `src/**/*.rs` outside `#[cfg(test)]`
  modules (`tests/` and `benches/` are not under `src/`, so they never
  count). Comments and docs count: deleting them is not a reduction.
* `pub` — `pub` items declared in those lines (fn, struct, enum, union,
  trait, type, const, static, mod), with every name of a `pub use`
  counted on its own. `pub(crate)`, fields and variants do not count.
* `unsafe` — `unsafe` keywords in those lines, comments aside. The whole
  workspace keeps them in one file, `UNSAFE_HOME` (the SHA-NI compression
  kernel); one anywhere else is listed and fails the run.
* `panics` — panic sites in those lines, comments aside: `.unwrap()`,
  `.expect(`, `unreachable!`, `panic!`, `unimplemented!`, `todo!`. For
  information only (ROADMAP aim 3 wants each a typed error or a documented
  invariant); the figure of `PANICS_OF`, the file the aim singles out, is
  printed under the table.

Then prints, for information only, the non-blank lines of what stands
around the crates and the table above never sees: benches, tests, scripts
and CI workflows (`SCAFFOLDING`). No bound applies to them; the block
exists so that deleting or growing scaffolding shows up somewhere. Its
last line sums the workspace total with the benches and tests, so that
moving code out of `src/` into a test does not read as a reduction.

Then, for each config struct in `CONFIG_STRUCTS`, prints its number of
`pub` fields: every one is an independently settable value, the count a
simplicity change has to quote before and after.

Then, for each enum in `CONFIG_ENUMS`, prints its number of variants: each
is a value a config field can select, which the field count cannot show.
For information only; no bound applies.

Last, per crate, lists the `pub fn`s (in those lines) whose name no other
Rust file of the repository (`USER_FILES`) mentions: candidates for
deletion or a narrower visibility. A name is matched as a whole word, so
a function called elsewhere under a common name (`new`, `len`) is never
listed, and one called only by its own file or that file's unit tests is.
For information only; no bound applies.

Relies on the tree being rustfmt-formatted: a `#[cfg(test)]` module ends at
the first `}` indented like its attribute, and a struct or enum at the first
`}` in column 0.

Usage: python3 scripts/count_lines.py [repo-root]
"""

import re
import sys
from pathlib import Path

PUB_ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|async|unsafe|extern\s+\"[^\"]*\")\s+)*"
    r"(?:fn|struct|enum|trait|type|const|static|mod|union)\b"
)
PUB_USE = re.compile(r"^\s*pub\s+use\b")
PUB_FN = re.compile(
    r"^\s*pub\s+(?:(?:const|async|unsafe|extern\s+\"[^\"]*\")\s+)*fn\s+(\w+)"
)
WORD = re.compile(r"\b[A-Za-z_]\w*\b")
PUB_FIELD = re.compile(r"^    pub\s+\w+\s*:")
VARIANT = re.compile(r"^    [A-Z]\w*\s*[,({]")
UNSAFE = re.compile(r"\bunsafe\b")
UNSAFE_HOME = "crates/crypto/src/sha256/x86.rs"
PANIC = re.compile(r"\.unwrap\(\)|\.expect\(|\b(?:unreachable|panic|unimplemented|todo)!")
PANICS_OF = "crates/core/src/exchange.rs"
CONFIG_STRUCTS = ("ExchangeConfig", "RunConfig", "StageCosts", "JournalConfig", "SetupConfig")
CONFIG_ENUMS = ("ProtocolPolicy",)
SCAFFOLDING = (
    ("benches", ("crates/*/benches/**/*.rs", "benches/**/*.rs")),
    ("tests", ("crates/*/tests/**/*.rs", "tests/**/*.rs")),
    ("scripts", ("scripts/**/*.py",)),
    ("workflows", (".github/workflows/*.yml",)),
)
USER_FILES = (
    "crates/*/src/**/*.rs",
    "crates/*/tests/**/*.rs",
    "crates/*/benches/**/*.rs",
    "src/**/*.rs",
    "tests/**/*.rs",
    "benches/**/*.rs",
    "examples/**/*.rs",
    "benchmark/src/**/*.rs",
)


def non_test_lines(text):
    """Non-blank lines of `text` outside `#[cfg(test)]` modules."""
    kept, lines, i = [], text.splitlines(), 0
    while i < len(lines):
        line = lines[i]
        if line.strip() == "#[cfg(test)]" and i + 1 < len(lines):
            opener = lines[i + 1].strip()
            if opener.startswith("mod ") and opener.endswith("{"):
                close = line[: len(line) - len(line.lstrip())] + "}"
                i += 2
                while i < len(lines) and lines[i] != close:
                    i += 1
                i += 1
                continue
        if line.strip():
            kept.append(line)
        i += 1
    return kept


def pub_items(lines):
    """`pub` items among `lines`; each name of a `pub use` counts once."""
    count, i = 0, 0
    while i < len(lines):
        line = lines[i]
        if PUB_USE.match(line):
            statement = line
            while ";" not in statement and i + 1 < len(lines):
                i += 1
                statement += lines[i]
            names = statement.split("use", 1)[1].replace("{", ",").replace("}", ",")
            names = (name.strip(" ;\n") for name in names.split(","))
            count += sum(1 for name in names if name and not name.endswith("::"))
        elif PUB_ITEM.match(line):
            count += 1
        i += 1
    return count


def tokens(pattern, lines):
    """Matches of `pattern` among `lines`, ignoring `//` comments and docs."""
    return sum(len(pattern.findall(line.split("//", 1)[0])) for line in lines)


def members(lines, opener, pattern):
    """Lines matching `pattern` in the body that `opener` starts, or None if absent."""
    if opener not in lines:
        return None
    body = lines[lines.index(opener) + 1 :]
    return sum(1 for line in body[: body.index("}")] if pattern.match(line))


def unnamed_pub_fns(root):
    """Per crate, `(file, fn)` for each `pub fn` no other Rust file names."""
    words = {}
    for pattern in USER_FILES:
        for path in root.glob(pattern):
            words[path] = set(WORD.findall(path.read_text()))
    found = {}
    for crate in sorted((root / "crates").iterdir()):
        for path in sorted((crate / "src").rglob("*.rs")):
            for line in non_test_lines(path.read_text()):
                name = PUB_FN.match(line)
                if name and not any(
                    name[1] in names for other, names in words.items() if other != path
                ):
                    found.setdefault(crate.name, []).append((path.name, name[1]))
    return found


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    rows, everything, stray, singled_out = [], [], [], None
    for crate in sorted((root / "crates").iterdir()):
        src = crate / "src"
        if not src.is_dir():
            continue
        kept, unsafes = [], 0
        for path in sorted(src.rglob("*.rs")):
            lines = non_test_lines(path.read_text())
            found = tokens(UNSAFE, lines)
            where = path.relative_to(root).as_posix()
            if found and where != UNSAFE_HOME:
                stray.append((where, found))
            if where == PANICS_OF:
                singled_out = tokens(PANIC, lines)
            kept += lines
            unsafes += found
        rows.append((crate.name, len(kept), pub_items(kept), unsafes, tokens(PANIC, kept)))
        everything += kept
    rows.append(("total", *(sum(r[i] for r in rows) for i in (1, 2, 3, 4))))
    print(f"{'crate':<10} {'lines':>7} {'pub':>5} {'unsafe':>7} {'panics':>7}")
    for name, lines, pubs, unsafes, panics in rows:
        print(f"{name:<10} {lines:>7} {pubs:>5} {unsafes:>7} {panics:>7}")
    print(f"of which {PANICS_OF}: {singled_out} panics")
    print(f"\n{'scaffolding':<10} {'lines':>7}")
    counts = {}
    for name, patterns in SCAFFOLDING:
        texts = (path.read_text() for pattern in patterns for path in root.glob(pattern))
        counts[name] = sum(1 for text in texts for line in text.splitlines() if line.strip())
        print(f"{name:<10} {counts[name]:>7}")
    code = len(everything) + counts["benches"] + counts["tests"]
    print(f"workspace + tests + benches: {code} lines")
    print(f"\n{'config struct':<16} {'pub fields':>10}")
    for struct in CONFIG_STRUCTS:
        fields = members(everything, f"pub struct {struct} {{", PUB_FIELD)
        print(f"{struct:<16} {'absent' if fields is None else fields:>10}")
    print(f"\n{'config enum':<16} {'variants':>10}")
    for enum in CONFIG_ENUMS:
        variants = members(everything, f"pub enum {enum} {{", VARIANT)
        print(f"{enum:<16} {'absent' if variants is None else variants:>10}")
    print("\npub fns no other file names")
    unnamed = unnamed_pub_fns(root)
    for crate, fns in unnamed.items():
        for file, name in fns:
            print(f"{crate:<10} {file}: {name}")
    if not unnamed:
        print("(none)")
    for path, found in stray:
        print(f"error: {found} `unsafe` in {path}; only {UNSAFE_HOME} may hold any", file=sys.stderr)
    if stray:
        sys.exit(1)


if __name__ == "__main__":
    main()
