"""Bundled demo input files, addressable by bare name on the command line."""

__all__ = ["DEMO_NAMES", "is_demo", "demo_text"]

DEMO_NAMES = ("qubit-pair", "rebit-pair", "quabit-pair", "spin-vs-qubit")


def is_demo(name: str) -> bool:
    return name in DEMO_NAMES


def demo_text(name: str) -> str:
    if not is_demo(name):
        raise ValueError(
            f"unknown demo {name!r}; bundled demos: {', '.join(DEMO_NAMES)}"
        )
    # imported here, not at module level: only demo inputs read package data
    from importlib import resources

    path = resources.files(__package__).joinpath(f"{name}.json")
    return path.read_text(encoding="utf-8")
