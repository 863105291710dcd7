"""A pub/sub subscriber in a process of its own.

Serves one ``PubSub::Subscriber`` on an shm ORB, prints its stringified
reference, then one line ``<seq> <crc32>`` per delivered event, and
shuts the ORB down when its stdin closes::

    PYTHONPATH=src python tests/services/pubsub_subscriber.py
"""

import sys
import threading
import zlib

from repro.orb import ORB, ORBConfig
from repro.services import pubsub_api


def main() -> None:
    api = pubsub_api()
    out = threading.Lock()

    class Printer(api.PubSub_Subscriber_skel):
        def deliver(self, topic, seq, payload):
            crc = zlib.crc32(payload.view())
            with out:
                print(seq, crc, flush=True)

    orb = ORB(ORBConfig(scheme="shm"))
    try:
        print(orb.object_to_string(orb.activate(Printer())), flush=True)
        sys.stdin.read()  # until the parent closes it
    finally:
        orb.shutdown()


if __name__ == "__main__":
    main()
