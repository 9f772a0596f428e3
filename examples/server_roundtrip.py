#!/usr/bin/env python3
"""The optimizer as a long-lived service: one full client round trip.

The Volcano optimizer generator produces *code you link into a system*;
``repro.server`` is the operational face of that idea — the generated
optimizer running as a process, speaking HTTP/JSON, with the plan cache,
provenance verification, pinning, and the regression guard in front of
it.  This example drives every endpoint once, in-process (the server on
a background thread, the client over a real socket):

1. health check, cold optimize, warm (cached) optimize — repeated: the
   cached entry was verified once, the statement text resolved once;
2. prepare a parameterized statement and bind it twice;
3. pin the chain-join plan, bump statistics, show the pin holding;
4. unpin, re-optimize, read the counters back from ``/stats``.

Run:  python examples/server_roundtrip.py
"""

from repro.feedback import drifted_workload
from repro.generator.generate import generate_optimizer
from repro.models.relational import relational_model
from repro.options import ServerOptions
from repro.server import OptimizerServer, ServerClient, ServerThread
from repro.service import OptimizerService, ServiceOptions

CHAIN = "SELECT * FROM r, s, t WHERE r.k = s.k AND s.k = t.k"
POINT = "SELECT * FROM r WHERE r.k = 7"


def main() -> None:
    scenario = drifted_workload()
    service = OptimizerService(
        generate_optimizer(relational_model(), scenario.catalog),
        options=ServiceOptions(verify_plans=True),
    )
    server = OptimizerServer(
        service, options=ServerOptions(max_concurrent=4, verify_pins=True)
    )

    with ServerThread(server) as harness:
        print(f"server listening on {harness.address}")
        with ServerClient(harness.address) as client:
            health = client.health()
            assert health["ok"]
            print(f"health: statistics_version={health['statistics_version']}")

            # -- cold, then warm -------------------------------------
            cold = client.optimize(CHAIN)
            assert not cold["cached"] and cold["verified"]
            print(f"cold optimize: cost={cold['cost_total']:.0f} "
                  f"verified={cold['verified']}")
            admitted = client.stats()["admission"]["admitted"]
            warm = client.optimize(CHAIN)
            assert warm["cached"] and warm["sexpr"] == cold["sexpr"]
            # A hit is answered on the event loop: no admission slot.
            assert client.stats()["admission"]["admitted"] == admitted
            print(f"warm optimize: cached={warm['cached']} "
                  f"(admitted stays {admitted})")

            # -- verified once, resolved once ------------------------
            before = client.stats()
            repeats = [client.optimize(CHAIN) for _ in range(5)]
            assert all(r["cached"] and r["verified"] for r in repeats)
            after = client.stats()
            assert (after["cache"]["verified_hits"]
                    == before["cache"]["verified_hits"] + 5)
            # The checker accepted this entry before it was cached; it
            # is not run again for a hit on the same plan and certificate.
            assert (after["cache"]["verifications"]
                    == before["cache"]["verifications"])
            memo = after["server"]["statement_memo"]
            assert memo["hits"] == before["server"]["statement_memo"]["hits"] + 5
            print(f"5 more hits: verified_hits +5, verifications stays "
                  f"{after['cache']['verifications']}, statement memo "
                  f"hits={memo['hits']} misses={memo['misses']}")

            # -- prepared statement ----------------------------------
            prepared = client.prepare(POINT)
            print(f"prepared {prepared['statement']} "
                  f"parameters={prepared['parameters']}")
            first = client.bind(prepared["statement"], {"p0": 9})
            second = client.bind(prepared["statement"], {"p0": 11})
            assert second["cached"] and second["parameterized"]
            print("bind p0=9 → engine run; "
                  "bind p0=11 → parameterized template hit")

            # -- pin across a statistics bump ------------------------
            pin = client.pin(CHAIN, reason="demo SLO")
            assert pin["verified"]
            before = client.health()["statistics_version"]
            client.update_statistics(
                "t", {"columns": {"t.v": {"distinct_values": 123.0}}}
            )
            after = client.health()["statistics_version"]
            served = client.optimize(CHAIN)
            assert served["pinned"] and served["sexpr"] == cold["sexpr"]
            print(f"statistics v{before}→v{after}: pinned plan held")

            client.unpin(sql=CHAIN)
            fresh = client.optimize(CHAIN)
            assert not fresh["pinned"]
            print("unpinned: fresh optimization served")

            # -- the counters tell the story -------------------------
            stats = client.stats()
            cache = stats["cache"]
            assert cache["verify_violations"] == 0
            print(f"stats: hits={cache['hits']} misses={cache['misses']} "
                  f"pinned_hits={stats['registry']['counters']['pinned_hits']} "
                  f"verify_violations={cache['verify_violations']}")

    print("server stopped cleanly")


if __name__ == "__main__":
    main()
