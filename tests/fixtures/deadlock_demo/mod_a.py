"""Half of the two-module deadlock fixture (see mod_b.py).

``AccountA.transfer`` takes A's lock then calls across the module
boundary into :func:`mod_b.credit`, which takes B's lock — while
``mod_b.AccountB.reverse`` nests the same two locks in the opposite
order. Neither module is wrong on its own; the inversion only exists in
the whole program. The ``lock-order-inversion`` rule must catch it —
tests/test_crossmod.py and the ``repro lint`` tests in
tests/test_analysis.py run it over this directory.
"""

import threading


class AccountA:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.balance = 0

    def transfer(self, other: "object", amount: int) -> None:
        from mod_b import credit

        with self._lock:
            self.balance -= amount
            credit(other, amount)

    def debit(self, amount: int) -> None:
        with self._lock:
            self.balance -= amount
