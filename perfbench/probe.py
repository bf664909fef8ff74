"""Set-up probe: a fresh interpreter made ready for a workload's first request.

Run by ``run.py`` to time set-up: it imports the program, builds the
workload's first spec and opens that spec's store, then prints ``ready``.

    python3 perfbench/probe.py WORKLOAD SEED STORE_PATH
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    workload, seed, store_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    from repro.experiments import runner  # noqa: F401  (the front door)

    import workloads

    spec = workloads.first_spec(workload, seed, workloads.Size(), store_path)
    spec.runtime.build_store()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
