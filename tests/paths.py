"""Access to the shipped example models, and the scheduler family built
from them."""

from importlib import resources

from polyinv.hybrid import HybridAutomaton, parallel_compose, parse_automaton


def example_text(name: str) -> str:
    return resources.files("polyinv").joinpath("examples", name).read_text()


def interrupt_text(p1: int, p2: int) -> str:
    """interrupt.lha with interrupt periods p1 and p2 (10 and 20 as shipped)."""
    text = example_text("interrupt.lha")
    assert text.count("c1 >= 10;") == 1 and text.count("c2 >= 20;") == 1
    return text.replace("c1 >= 10;", f"c1 >= {p1};").replace("c2 >= 20;", f"c2 >= {p2};")


def scheduler(name) -> HybridAutomaton:
    """The shipped scheduler for "scheduler.lha", else the family member
    task.lha x interrupt.lha with the periods of the pair ``name``."""
    if name == "scheduler.lha":
        return parse_automaton(example_text(name))
    p1, p2 = name
    return parallel_compose(
        parse_automaton(example_text("task.lha")), parse_automaton(interrupt_text(p1, p2))
    )
