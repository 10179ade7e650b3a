"""Object-engine half of the known-bad engine-parity fixture (parsed only).

The commit method invokes ``on_ll_detect``; the cext twin (bad_cext.py
and bad_cext.c) never reaches that hook.
"""


class SMTCore:
    def _commit(self, ts):
        self.policy.on_ll_detect(None, ts)
        ts.stats.committed += 1
