"""Run ``repro-axc serve`` with the benchmark's hooks installed.

The traced ``service`` run starts the daemon through this driver instead of
``python -m repro.cli``: it installs the layer hooks, calls the same CLI
entry point, and after the daemon has drained writes its spans, counters
and ticket events to DUMP_PATH.

    python3 perfbench/daemon_driver.py DUMP_PATH serve --socket PATH --store PATH
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    import layers
    from repro import cli

    tracer = layers.install_tracer()
    tracer.default_request = "daemon.setup"
    code = cli.main(argv)
    tracer.dump(dump_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
