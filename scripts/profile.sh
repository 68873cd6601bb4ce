#!/bin/sh
# A flat CPU profile of `rwled` that needs no PMU (scripts/sprof.c).
#
#   scripts/profile.sh run DIR COMMAND [ARGS...]
#       builds the sampler, runs COMMAND with it preloaded, and leaves one
#       DIR/<pid>.txt per `rwled` process that exits normally (SHUTDOWN,
#       or the end of main); any other process COMMAND starts is not
#       sampled. For example, a benchmark workload's server:
#         scripts/profile.sh run /tmp/prof cargo run --release --offline \
#             --quiet --manifest-path benchmark/Cargo.toml -- \
#             --workload svc-read --seed 1 --seconds 8 --trace 0
#   scripts/profile.sh report FILE [MIN_PCT]
#       symbolizes FILE with `llvm-symbolizer --inlining` and prints the
#       share of samples by function (the symbol the code was compiled
#       into, inlined callees counted in it) and by source line (the
#       innermost inlined frame), down to MIN_PCT percent (default 1).
#
# SIGPROF runs at the kernel's tick (about 4 ms here, so ~250 samples per
# busy CPU-second) and perturbs the run it samples: its shares say where
# a process spends its time, never by how much a change speeds it up.
set -eu
here=$(cd "$(dirname "$0")" && pwd)

case "${1:-}" in
run)
    [ $# -ge 3 ] || { echo "usage: $0 run DIR COMMAND [ARGS...]" >&2; exit 2; }
    dir=$2
    shift 2
    mkdir -p "$dir"
    dir=$(cd "$dir" && pwd)
    gcc -O2 -shared -fPIC -o "$dir/sprof.so" "$here/sprof.c"
    LD_PRELOAD="$dir/sprof.so${LD_PRELOAD:+:$LD_PRELOAD}" SPROF_DIR="$dir" "$@"
    ls "$dir"/*.txt 2>/dev/null || echo "no rwled process exited normally" >&2
    ;;
report)
    [ $# -ge 2 ] || { echo "usage: $0 report FILE [MIN_PCT]" >&2; exit 2; }
    exec python3 - "$2" "${3:-1}" <<'EOF'
import collections, re, subprocess, sys

path, floor = sys.argv[1], float(sys.argv[2])
pcs, maps = [], []
with open(path) as f:
    for line in f:
        if line.startswith("pc "):
            pcs.append(int(line[3:], 16))
        elif line.strip() != "maps":
            parts = line.split()
            if len(parts) >= 6:
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
# Each object's load base: the start of its mapping at file offset 0.
base = {obj: lo for lo, hi, off, obj in maps if off == 0}

def owner(pc):
    for lo, hi, off, obj in maps:
        if lo <= pc < hi and obj in base:
            return obj, pc - base[obj]
    return None, pc

by_obj = collections.defaultdict(collections.Counter)
unknown = 0
for pc in pcs:
    obj, addr = owner(pc)
    if obj is None:
        unknown += 1
    else:
        by_obj[obj][addr] += 1

hash_suffix = re.compile(r"::h[0-9a-f]{16}$")
# What llvm-symbolizer leaves of Rust's legacy mangling inside impl paths.
escapes = (("_$LT$", "<"), ("$LT$", "<"), ("$GT$", ">"), ("$u20$", " "), ("$RF$", "&"), ("$BP$", "*"),
           ("$u5b$", "["), ("$u5d$", "]"), ("$u7b$", "{"), ("$u7d$", "}"), ("$C$", ","),
           ("$u27$", "'"), ("..", "::"))

def demangle(name):
    name = hash_suffix.sub("", name)
    if "$" not in name:
        return name
    for code, text in escapes:
        name = name.replace(code, text)
    return name

funcs, lines = collections.Counter(), collections.Counter()
for obj, counts in by_obj.items():
    addrs = sorted(counts)
    out = subprocess.run(
        ["llvm-symbolizer", "--inlining", "--obj=" + obj],
        input="".join("0x%x\n" % a for a in addrs),
        capture_output=True, text=True, check=True,
    ).stdout
    blocks = out.split("\n\n")
    name = obj.rsplit("/", 1)[-1]
    for addr, block in zip(addrs, blocks):
        rows = block.strip().split("\n")
        frames = [(demangle(rows[i]), rows[i + 1]) for i in range(0, len(rows) - 1, 2)]
        if not frames or frames[0][0] == "??":
            funcs["[%s]" % name] += counts[addr]
            lines["[%s]" % name] += counts[addr]
            continue
        funcs[frames[-1][0]] += counts[addr]
        inner, loc = frames[0]
        loc = re.sub(r"^.*?/(crates|library)/", r"\1/", loc)
        lines["%s  %s" % (loc.rsplit(":", 1)[0], inner)] += counts[addr]

total = len(pcs)
print("%d samples (%d outside any mapped object)" % (total, unknown))
for title, table in (("by function", funcs), ("by source line", lines)):
    print("\n%s, >= %g %%" % (title, floor))
    for what, n in table.most_common():
        pct = 100.0 * n / max(total, 1)
        if pct < floor:
            break
        print("%6.1f %%  %s" % (pct, what))
EOF
    ;;
*)
    sed -n '2,20p' "$0" >&2
    exit 2
    ;;
esac
