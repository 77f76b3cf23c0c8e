#!/usr/bin/env sh
# Regenerate BENCH_hotpath.json, the tracked hot-path microbenchmark
# record (event core, PP dispatch, whole-node miss round-trip).
#
# Usage: scripts/bench_hotpath.sh [build-dir] [extra benchmark args...]
# Runs the default-preset bench_hotpath binary and writes the JSON to
# the repository root so perf regressions show up in review diffs.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
[ $# -gt 0 ] && shift

bench="$build_dir/bench/bench_hotpath"
if [ ! -x "$bench" ]; then
    echo "error: $bench not built (cmake --build $build_dir -j)" >&2
    exit 1
fi

# Old-style min_time flag (no unit suffix): the baked-in google-benchmark
# predates the "0.2s" syntax.
"$bench" \
    --benchmark_min_time=0.2 \
    --benchmark_out="$repo_root/BENCH_hotpath.json" \
    --benchmark_out_format=json \
    "$@"

# Stamp the recording host's shape (cores, hostname) into the record.
python3 - "$repo_root/BENCH_hotpath.json" <<'EOF'
import json, os, socket, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
doc["bench_host"] = {
    "cores": os.cpu_count() or 0,
    "host": socket.gethostname(),
}
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
EOF

echo "wrote $repo_root/BENCH_hotpath.json" >&2
