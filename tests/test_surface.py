"""Guards on the public surface: a new knob or a stale doc fails here."""

import argparse
import dataclasses
import re
from pathlib import Path

from degdet import SolveOptions, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_solve_options_are_the_four_settings():
    assert [f.name for f in dataclasses.fields(SolveOptions)] == [
        "seed", "scaling_enabled", "truncation_enabled", "truncation_depth"]


def test_readme_common_flags_are_the_registered_ones():
    text = " ".join(README.read_text().split())
    listed = re.search(r"Common flags: (.*?)\.", text).group(1)
    parser = argparse.ArgumentParser(add_help=False)
    cli._add_common(parser)
    registered = [opt for action in parser._actions for opt in action.option_strings]
    assert re.findall(r"`(--[\w-]+)`", listed) == registered
