"""Entry point of the processes that run the program under test.

``run.py`` starts this script once per role, each in a fresh process:

- ``setup --workload W``: import the workload's modules and compile
  the bot registry, then print ``ready`` (one ``setup_s`` sample);
- ``corpus``: write the ``analyze-logs`` input and describe it;
- ``run``: the timed iterations of one workload, printing one JSON
  line with timings, check outcomes and per-layer totals;
- ``serve``: the decision-service server of the ``service`` workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import workloads


def _setup(workload: str) -> None:
    import repro  # noqa: F401  (the import is the measured set-up)
    from repro.uaparse.registry import default_registry

    if workload == "matrix":
        import repro.scenarios  # noqa: F401
    elif workload == "analyze-logs":
        import repro.logs.io  # noqa: F401
    default_registry()
    print("ready", flush=True)


def _run(args: argparse.Namespace) -> None:
    sizes = workloads.SIZES[args.size]
    if args.workload == "service":
        import service_load

        outcome = service_load.generate(
            args.seed, args.seconds, args.trace, sizes.service_pass
        )
    else:
        if args.workload == "report":
            step = workloads.report_step(args.seed, sizes)
        elif args.workload == "analyze-logs":
            with open(args.corpus_info, encoding="utf-8") as handle:
                corpus = json.load(handle)
            step = workloads.analyze_step(
                args.seed, sizes, args.corpus, corpus["records"], args.work
            )
        else:
            step = workloads.matrix_step(args.seed, sizes, args.work)
        outcome = workloads.run_iterations(step, args.seconds, args.trace, args.work)
        outcome.extra_metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    print(workloads.to_json(outcome), flush=True)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    roles = parser.add_subparsers(dest="role", required=True)
    setup = roles.add_parser("setup")
    setup.add_argument("--workload", required=True)
    corpus = roles.add_parser("corpus")
    corpus.add_argument("--seed", type=int, required=True)
    corpus.add_argument("--size", default="full")
    corpus.add_argument("--out", required=True)
    run = roles.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--size", default="full")
    run.add_argument("--work", required=True)
    run.add_argument("--corpus")
    run.add_argument("--corpus-info")
    roles.add_parser("serve")
    args = parser.parse_args(argv)

    if args.role == "setup":
        _setup(args.workload)
    elif args.role == "corpus":
        info = workloads.prepare_corpus(
            args.seed, workloads.SIZES[args.size], args.out
        )
        with open(args.out + ".json", "w", encoding="utf-8") as handle:
            json.dump(info, handle)
    elif args.role == "run":
        _run(args)
    else:
        import service_load

        service_load.serve()


if __name__ == "__main__":
    sys.exit(main())
