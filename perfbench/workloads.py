"""The benchmark's workloads by name."""

from pathlib import Path

NAMES = ("decompose", "verify", "cli")


def make(name: str, root: Path):
    if name == "decompose":
        from wl_decompose import Decompose

        return Decompose()
    if name == "verify":
        from wl_verify import Verify

        return Verify()
    if name == "cli":
        from wl_cli import Cli

        return Cli(root)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
