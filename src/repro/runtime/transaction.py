"""Snapshot/restore of a session's mutable state.

A :class:`~repro.lang.api.Session` has exactly four pieces of mutable
state that a failed program can leave half-applied:

1. the typing environment (persistent — a snapshot is just the reference);
2. the global runtime frame (a dict, shared with the live env chain, so it
   must be restored *in place*);
3. the purity environment (a set of impure names);
4. the store — location values, allocations and the id counter, handled by
   the store's own journal (:meth:`~repro.eval.store.Store.savepoint`).

:class:`SessionState` captures 1–3; ``Session.transaction`` pairs it with
a store savepoint to make execution atomic.  Keeping the capture logic
here (rather than inline in ``lang.api``) gives the fault harness and the
catalog layer one canonical definition of "the session's observable
state".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..lang.api import Session

__all__ = ["SessionState"]


class SessionState:
    """An immutable capture of a session's bindings, types and purity."""

    __slots__ = ("type_env", "frame", "impure")

    def __init__(self, type_env, frame: dict, impure: set):
        self.type_env = type_env
        self.frame = frame
        self.impure = impure

    @classmethod
    def capture(cls, session: "Session") -> "SessionState":
        return cls(session.type_env,
                   dict(session._global_frame),
                   session.purity.snapshot())

    def restore(self, session: "Session") -> None:
        """Reset ``session`` to this state, in place.

        The global frame dict is shared by every environment node built on
        it (closures capture env nodes, not copies), so it is cleared and
        refilled rather than replaced.
        """
        from ..analysis.effects import PurityEnv
        session.type_env = self.type_env
        session._global_frame.clear()
        session._global_frame.update(self.frame)
        session.purity = PurityEnv(self.impure)
