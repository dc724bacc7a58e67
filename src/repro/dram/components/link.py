"""Weak back-pointer from a controller component to its controller.

The controller holds its policies strongly. A strong pointer back would
close a reference cycle around every controller, and a finished run
would then stay resident until CPython's cyclic collector ran, instead
of being freed by reference counting the moment its last reference
drops. Components that need their controller inherit
:class:`ControllerLink` and read it as ``self._ctrl()``.
"""

from __future__ import annotations

import weakref


class ControllerLink:
    """``bind`` keeps a weak reference to the controller in ``_ctrl``.

    Pickles (checkpoints) carry the controller itself, which the pickle
    memo resolves to the controller being restored; unpickling turns it
    back into a weak reference.
    """

    def bind(self, controller) -> None:
        self._ctrl = weakref.ref(controller)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        link = state.get("_ctrl")
        if link is not None:
            state["_ctrl"] = link()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        controller = state.get("_ctrl")
        if controller is not None:
            self._ctrl = weakref.ref(controller)
