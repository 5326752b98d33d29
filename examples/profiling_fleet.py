#!/usr/bin/env python3
"""Scenario: fleet profiling with the central collection server.

"Since different types of wrappers can be used in a distributed
environment, the gathered information sent to the server is in form of a
self-describing XML document."  Several applications run under the
profiling wrapper; each run's document is shipped over TCP to the
collection server; the server's store answers the Fig. 5 questions
across the fleet.

Run with::

    python examples/profiling_fleet.py
"""

from repro.apps import CSVSTAT, MSGFORMAT, WORDCOUNT, standard_files
from repro.collection import IngestServer, submit_document
from repro.core import Healers
from repro.profiling import render_errno_distribution, render_full_report

RUNS = [
    (WORDCOUNT, dict(argv=["/data/sample.txt"], files=standard_files())),
    (WORDCOUNT, dict(argv=["/missing.txt"], files=standard_files())),
    (CSVSTAT, dict(argv=["/data/values.csv"], files=standard_files())),
    (MSGFORMAT, dict(stdin=b"ECHO one\nADD 3 4\nQUIT\n")),
]


def main() -> int:
    toolkit = Healers()
    with IngestServer() as server:
        print(f"collection server listening on {server.address}\n")
        for app, kwargs in RUNS:
            result, document = toolkit.profile_run(app, **kwargs)
            accepted = submit_document(server.address, document.to_xml())
            print(f"ran {app.name:<10} status={result.status} "
                  f"calls={document.total_calls:<5} "
                  f"submitted={'ok' if accepted else 'REJECTED'}")
        store = server.store

        print(f"\nserver store: {len(store)} documents from "
              f"{', '.join(store.applications())}")
        print("\nfleet-wide call totals (top 8):")
        totals = store.aggregate_calls()
        for name in sorted(totals, key=totals.get, reverse=True)[:8]:
            print(f"  {name:<12} {totals[name]}")

        print("\ndocuments carrying errno data:")
        for stored in store.by_kind("errno-distribution"):
            print(f"  {stored.document.application}:")
            text = render_errno_distribution(stored.document)
            print("    " + text.replace("\n", "\n    "))

        print("\nfull report for the first wordcount run:")
        first = store.by_application("wordcount")[0]
        print(render_full_report(first.document))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
