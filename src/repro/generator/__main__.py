"""Command-line driver for the optimizer generator.

``python -m repro.generator MODEL`` runs the Figure 1 pipeline for a
bundled model: it emits the generated optimizer module (integer-coded
tables + ``build_optimizer``) into a content-keyed cache directory and,
for the specialized tier, generates the model's search kernel
(see :mod:`repro.generator.kernel`).  Unchanged specifications reuse
their cached modules; ``--force`` regenerates unconditionally.

Examples::

    python -m repro.generator relational
    python -m repro.generator --all --tier specialized
    python -m repro.generator oodb --force --out build/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.generator.codegen import compile_and_load, source_fingerprint
from repro.generator.kernel import kernel_cache_dir, kernel_for, spec_fingerprint
from repro.options import KERNEL_TIERS

#: Bundled models: CLI name -> provider (``module:callable``).  The
#: provider string is embedded into the generated module, which re-calls
#: it at import time to verify the tables have not drifted.
BUNDLED_MODELS = {
    "relational": "repro.models.relational:relational_model",
    "aggregates": "repro.models.aggregates:aggregate_model",
    "oodb": "repro.models.oodb:oodb_model",
    "parallel": "repro.models.parallel:parallel_relational_model",
    "setops": "repro.models.setops:setops_model",
}


def _load_provider(provider: str):
    module_name, _, attribute = provider.partition(":")
    module = __import__(module_name, fromlist=[attribute])
    return getattr(module, attribute)


def _generate_one(name: str, provider: str, args) -> int:
    spec = _load_provider(provider)()
    out = Path(args.out) if args.out else kernel_cache_dir()
    out.mkdir(parents=True, exist_ok=True)
    module = compile_and_load(
        spec, provider, out, tier=args.tier, force=args.force
    )
    action = "generated" if module.GENERATED else "cached"
    print(f"{name}: optimizer module {action} at {module.__file__}")
    if args.tier != "interpreted":
        kernel = kernel_for(spec, args.tier, force=args.force)
        print(
            f"{name}: kernel {kernel.fingerprint} tier={kernel.tier} "
            f"at {kernel.source_path or '<memory>'}"
        )
    else:
        print(f"{name}: kernel fingerprint {spec_fingerprint(spec)} (not built)")
    if args.verbose:
        text = Path(module.__file__).read_text()
        print(f"{name}: module fingerprint {source_fingerprint(text)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.generator",
        description="Generate optimizer modules and search kernels.",
    )
    parser.add_argument(
        "model",
        nargs="?",
        choices=sorted(BUNDLED_MODELS),
        help="bundled model to generate (omit with --all)",
    )
    parser.add_argument(
        "--all", action="store_true", help="generate every bundled model"
    )
    parser.add_argument(
        "--tier",
        choices=KERNEL_TIERS,
        default="specialized",
        help="kernel tier baked into the module (default: specialized)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="cache directory (default: the kernel cache, "
        "$REPRO_KERNEL_CACHE or ~/.cache/repro-kernels)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="regenerate even when the cached module's fingerprint matches",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.all == (args.model is not None):
        parser.error("name exactly one bundled model, or pass --all")
    names = sorted(BUNDLED_MODELS) if args.all else [args.model]
    status = 0
    for name in names:
        status |= _generate_one(name, BUNDLED_MODELS[name], args)
    return status


if __name__ == "__main__":
    sys.exit(main())
