#!/usr/bin/env bash
# Local equivalent of the CI gate: lint + tests + parallel-runtime smoke.
# Usage: scripts/check.sh [--fast]   (--fast skips the smoke run)
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== lint =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks examples scripts
    # blocking, mirroring CI (the staged warn-only rollout is over)
    ruff format --check src tests benchmarks examples scripts
else
    echo "ruff not installed; skipping lint + format check (CI will run them)"
fi

echo "== tests =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q

if [[ $fast -eq 0 ]]; then
    echo "== smoke: mbs-repro all --jobs 2 (fresh cache) =="
    smoke_dir=$(mktemp -d)
    trap 'rm -rf "$smoke_dir"' EXIT
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
        python -m repro.experiments.runner all --jobs 2 --summary \
        --cache-dir "$smoke_dir/cache" --out "$smoke_dir/manifests"
    echo "== smoke: replay + diff (--render-from-cache) =="
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
        python -m repro.experiments.runner all --render-from-cache --summary \
        --cache-dir "$smoke_dir/cache" --out "$smoke_dir/manifests"

    echo "== smoke: static shards (2 shards + merge --check vs --jobs 1) =="
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
        python -m repro.experiments.runner sweep fig3 --quick --jobs 1 \
        --cache-dir "$smoke_dir/ref-cache" --out "$smoke_dir/ref-manifests"
    for shard in 0 1; do
        PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
            python -m repro.experiments.runner sweep fig3 --quick \
            --shard "$shard/2" --cache-dir "$smoke_dir/shard-$shard-cache" \
            --out "$smoke_dir/shard-$shard"
    done
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
        python -m repro.experiments.runner merge \
        "$smoke_dir/shard-0" "$smoke_dir/shard-1" \
        --out "$smoke_dir/merged" --check "$smoke_dir/ref-manifests"
fi

echo "== all checks passed =="
