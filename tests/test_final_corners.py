"""Remaining corner coverage: kernel synchronization details, proxy
certificate verification through public material, and nlv windowing."""

import pytest

from repro.core.security import (CertError, CertificateAuthority, TrustStore)
from repro.netlogger import NLVConfig, NLVDataSet, render_ascii
from repro.simgrid import AllOf, SimulationError, Timeout
from repro.ulm import ULMMessage


class TestKernelCorners:
    def test_all_of_with_pre_triggered_flags(self, sim):
        flags = [sim.flag(str(i)) for i in range(3)]
        flags[0].trigger("early")
        got = []

        def waiter():
            got.append((yield AllOf(flags)))

        sim.spawn(waiter())
        sim.call_in(1.0, flags[1].trigger, "b")
        sim.call_in(2.0, flags[2].trigger, "c")
        sim.run()
        assert got == [["early", "b", "c"]]

    def test_all_of_empty_resumes_immediately(self, sim):
        got = []

        def waiter():
            got.append((yield AllOf([])))

        sim.spawn(waiter())
        sim.run()
        assert got == [[]]

    def test_killed_process_runs_finally_blocks(self, sim):
        cleaned = []

        def proc():
            try:
                yield Timeout(100.0)
            finally:
                cleaned.append(True)

        p = sim.spawn(proc())
        sim.call_in(1.0, p.kill)
        sim.run()
        assert cleaned == [True]

    def test_kill_after_death_is_noop(self, sim):
        def proc():
            yield Timeout(1.0)
            return "done"

        p = sim.spawn(proc())
        sim.run()
        p.kill()  # must not raise, reschedule or re-trigger done
        sim.run()
        assert not p.alive
        assert p.done.value == "done"
        assert sim.pending_events == 0

    def test_run_reentry_rejected(self, sim):
        def proc():
            sim.run()
            yield Timeout(1.0)

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()


class TestProxyVerificationPaths:
    def test_proxy_verifies_through_public_material(self):
        """A verifier that only has the proxy's *public* chain (no holder
        secrets in the parent object) still validates it via the CA."""
        ca = CertificateAuthority("doe-ca")
        trust = TrustStore([ca])
        user = ca.issue("/O=LBNL/CN=alice", not_after=1000.0)
        proxy = user.issue_proxy(not_after=100.0)
        # strip the secret from the parent reference, as a wire transfer
        # would: the verifier reconstructs it through the CA
        public_parent = user.public_view()
        proxy.parent = public_parent
        assert trust.verify(proxy, when=10.0) == "/O=LBNL/CN=alice"

    def test_tampered_proxy_rejected_via_public_path(self):
        ca = CertificateAuthority("doe-ca")
        trust = TrustStore([ca])
        user = ca.issue("/O=LBNL/CN=alice", not_after=1000.0)
        proxy = user.issue_proxy(not_after=100.0)
        proxy.parent = user.public_view()
        proxy.attributes["role"] = "admin"  # tamper
        with pytest.raises(CertError):
            trust.verify(proxy, when=10.0)

    def test_second_level_proxy_chain(self):
        ca = CertificateAuthority("doe-ca")
        trust = TrustStore([ca])
        user = ca.issue("/O=LBNL/CN=alice", not_after=1000.0)
        proxy1 = user.issue_proxy(not_after=500.0)
        proxy2 = proxy1.issue_proxy(not_after=100.0)
        assert proxy2.identity == "/O=LBNL/CN=alice"
        assert trust.verify(proxy2, when=10.0) == "/O=LBNL/CN=alice"


class TestNLVWindowing:
    def build(self):
        data = NLVDataSet(NLVConfig(points={"E": None}))
        for t in range(10):
            data.add(ULMMessage(date=float(t), host="h", prog="p",
                                event="E"))
        return data

    def test_render_respects_explicit_bounds(self):
        data = self.build()
        screen = render_ascii(data, width=50, t0=3.0, t1=6.0)
        # only the in-window events are plotted: 4 X marks
        assert screen.count("X") == 4
        assert "t0=3.000s" in screen

    def test_render_empty_dataset(self):
        data = NLVDataSet(NLVConfig(points={"E": None}))
        screen = render_ascii(data, width=30)
        assert "t0=" in screen  # renders without crashing

    def test_window_of_window(self):
        data = self.build()
        view = data.window(2.0, 8.0).window(4.0, 5.0)
        assert [m.date for m in view.messages] == [4.0, 5.0]
