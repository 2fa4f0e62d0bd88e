"""The public API takes a window only where the window is itself the input.

Jets, dual jets, regions and hierarchies carry the window they live on, so
a function that receives one of them reads the window from it, and a
second window argument could only disagree with it.
"""

import inspect

import surflat

WINDOW_INPUTS = {"past_region", "el_check", "ell", "scalar_solution",
                 "wave_solution"}


def test_public_functions_take_a_window_only_as_their_input():
    takes = {name for name in surflat.__all__
             if inspect.isfunction(obj := getattr(surflat, name))
             and "window" in inspect.signature(obj).parameters}
    assert takes == WINDOW_INPUTS
