"""Regenerate every table and figure of the paper in one run.

Run with::

    python examples/paper_tables_and_figures.py \
        [--paper-scale | --smoke] [--jobs N] [--out DIR] [--force]

This is a thin wrapper over the artifact pipeline (:mod:`repro.reporting`,
also reachable as ``repro-axc paper``): the declared Table I/II/III and
Figure 2/3/4 artifacts are expanded onto the experiment runtime, rendered
into ``--out`` (markdown + JSON + ``manifest.json``) and printed.  Reruns
are incremental — artifacts whose fingerprints and files are already up to
date are served from disk.

The default scale finishes in about a minute; ``--paper-scale`` switches to
the paper's 10,000-step budget and the 50x50 matrix, ``--smoke`` to a
seconds-long CI-sized pass.
"""

from __future__ import annotations

import argparse

from repro import RuntimeSpec
from repro.reporting import PaperPipeline, paper_artifacts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--paper-scale", action="store_true",
                       help="the paper's full benchmark sizes and step budgets")
    scale.add_argument("--smoke", action="store_true",
                       help="tiny benchmarks and budgets (CI-sized)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (results identical to serial)")
    parser.add_argument("--out", default="artifacts",
                        help="output directory (default: artifacts/)")
    parser.add_argument("--force", action="store_true",
                        help="rebuild even up-to-date artifacts")
    args = parser.parse_args()

    scale_name = ("paper" if args.paper_scale
                  else "smoke" if args.smoke else "default")
    pipeline = PaperPipeline(paper_artifacts(scale_name), out_dir=args.out,
                             runtime=RuntimeSpec(jobs=args.jobs), force=args.force)
    result = pipeline.run()

    for status in result.statuses:
        markdown = (result.out_dir / status.files[0]).read_text(encoding="utf-8")
        print(markdown)
        print()

    built = ", ".join(s.name for s in result.built) or "none (all cached)"
    print(f"rebuilt: {built}")
    print(f"artifacts + manifest in {result.out_dir}/ "
          f"({result.wall_clock_s:.2f} s)")


if __name__ == "__main__":
    main()
