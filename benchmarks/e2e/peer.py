"""The other side of the process boundary: ``run.py`` spawns one of
these per role and drives it over stdin/stdout.

Roles: ``echo`` (the Echo servant on tcp or shm), ``blob`` (a
``BlobStoreImpl`` over a directory the driver filled), ``subs`` (two
subscriber ORBs on shm plus a tcp control servant) and ``raw`` (the
raw-socket peer every ORB timing is divided by; it never imports
``repro``).

Control protocol: the peer pins itself to ``--cpu``, starts its role,
prints one JSON line ``{"ready": true, ...}`` and then answers one JSON
line per JSON line read (``{"cmd": "cpu" | "stats" | "trace_on" |
"trace_reset" | "trace_report" | "quit"}``).  End of input means the driver is gone:
the peer shuts down and exits, so a killed driver leaves no peer
behind.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import socket
import sys
import threading
import time
import trace  # the sibling trace.py: the script directory leads sys.path
import zlib

import common


def process_stats() -> dict:
    return {"cpu_s": time.process_time(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "threads": threading.active_count()}


# -- ORB roles ----------------------------------------------------------------

class OrbRole:
    """A role hosting servants on ORBs of its own."""

    def __init__(self, args):
        self.args = args
        self.counter = common.ByteCounter() if args.trace else None
        self.orbs: list = []
        self.tracer = None
        #: (metric, class, method) the tracer wraps besides its table
        self.upcalls: list = []

    def make_orb(self, scheme: str):
        from repro.orb import ORB, ORBConfig
        orb = ORB(ORBConfig(scheme=scheme), on_bytes=self.counter)
        self.orbs.append(orb)
        return orb

    def start(self) -> dict:
        raise NotImplementedError

    def servant_stats(self) -> dict:
        return {}

    def handle(self, msg: dict) -> dict:
        cmd = msg["cmd"]
        if cmd == "cpu":
            return process_stats()
        if cmd == "stats":
            conns = [c for orb in self.orbs
                     for c in orb.connections_snapshot()]
            return {**process_stats(),
                    # every ORB of a process shares the default pool
                    "pool": self.orbs[0].pool.stats(), "conns": conns,
                    "bytes": self.counter.snapshot() if self.counter else {},
                    "servant": self.servant_stats()}
        if cmd == "trace_on":
            self.tracer = trace.Tracer()
            self.tracer.install()
            for metric, cls, attr in self.upcalls:
                self.tracer.wrap(metric, cls, attr)
            return {"missing": self.tracer.missing}
        if cmd == "trace_reset":
            self.tracer.reset()
            return {}
        if cmd == "trace_report":
            report = self.tracer.report()
            self.tracer.uninstall()
            return report
        return {"error": f"unknown command {cmd!r}"}

    def stop(self) -> None:
        for orb in self.orbs:
            orb.shutdown()


class EchoRole(OrbRole):
    def start(self) -> dict:
        from repro.idl import compile_idl
        api = compile_idl(common.ECHO_IDL,
                          module_name=common.ECHO_IDL_MODULE)
        source = memoryview(common.seeded_bytes(
            self.args.seed, "source", common.SOURCE_SIZE))

        class EchoImpl(api.Echo_skel):
            def __init__(self):
                self.verify = False
                self.posts = 0
                self.last_post_crc = 0

            def ping(self, x):
                return None

            def send_zc(self, data):
                return zlib.crc32(data.view()) if self.verify else len(data)

            send = send_zc

            def fetch_zc(self, offset, count):
                return source[offset:offset + count]

            def post(self, data):
                # one connection, one reader: posts arrive one at a time
                self.posts += 1
                if self.verify:
                    self.last_post_crc = zlib.crc32(data.view())

            def set_verify(self, on):
                self.verify = bool(on)

            def posted(self):
                return self.posts

            def post_crc(self):
                return self.last_post_crc

        self.impl = EchoImpl()
        self.upcalls = [("servant.upcall_us", EchoImpl, name)
                        for name in ("ping", "send_zc", "send", "fetch_zc",
                                     "post")]
        orb = self.make_orb(self.args.scheme)
        return {"ior": orb.object_to_string(orb.activate(self.impl))}

    def servant_stats(self) -> dict:
        return {"posts": self.impl.posts}


class BlobRole(OrbRole):
    def start(self) -> dict:
        from repro.services import BlobStoreImpl
        self.impl = BlobStoreImpl(self.args.root)
        self.upcalls = [("services.blobstore.read_range_us",
                         type(self.impl), "read_range")]
        orb = self.make_orb(self.args.scheme)
        return {"ior": orb.object_to_string(orb.activate(self.impl))}

    def stop(self) -> None:
        self.impl.shutdown()
        super().stop()


class SubsRole(OrbRole):
    def start(self) -> dict:
        from repro.idl import compile_idl
        from repro.services import pubsub_api
        api = compile_idl(common.ECHO_IDL,
                          module_name=common.ECHO_IDL_MODULE)
        role = self
        self.cond = threading.Condition()
        self.delivered = 0
        self.bytes = 0
        self.verify = False
        self.seen: list = []

        class SubscriberImpl(pubsub_api().PubSub_Subscriber_skel):
            def __init__(self, index):
                self.index = index

            def deliver(self, topic, seq, payload):
                crc = zlib.crc32(payload.view()) if role.verify else None
                with role.cond:
                    role.delivered += 1
                    role.bytes += len(payload)
                    if crc is not None:
                        role.seen.append([self.index, seq, crc])
                    role.cond.notify_all()

        class ControlImpl(api.FanoutControl_skel):
            def wait_delivered(self, target, timeout_s):
                with role.cond:
                    role.cond.wait_for(lambda: role.delivered >= target,
                                       timeout_s)
                    return role.delivered

            def set_verify(self, on):
                role.verify = bool(on)

            def report(self):
                with role.cond:
                    seen, role.seen = role.seen, []
                return json.dumps(seen)

        self.upcalls = [("servant.upcall_us", SubscriberImpl, "deliver"),
                        ("servant.blocked_us", ControlImpl,
                         "wait_delivered")]
        iors = []
        for index in range(common.FANOUT_SUBSCRIBERS):
            orb = self.make_orb(self.args.scheme)
            iors.append(orb.object_to_string(
                orb.activate(SubscriberImpl(index))))
        control = self.make_orb("tcp")
        return {"subscribers": iors,
                "control": control.object_to_string(
                    control.activate(ControlImpl()))}

    def servant_stats(self) -> dict:
        with self.cond:
            return {"delivered": self.delivered, "bytes": self.bytes}


# -- the raw-socket peer ------------------------------------------------------

class RawRole:
    """Answers the protocol in ``common`` on any number of connections,
    one thread each (the fan-out workload opens one per subscriber)."""

    def __init__(self, args):
        self.listener = None
        self.conns: list = []

    def start(self) -> dict:
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        threading.Thread(target=self._accept, name="raw-accept",
                         daemon=True).start()
        return {"port": self.listener.getsockname()[1]}

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.conns.append(conn)
            threading.Thread(target=self._serve, args=(conn,),
                             name="raw-conn", daemon=True).start()

    def _serve(self, conn) -> None:
        inbox = memoryview(bytearray(common.RAW_MAX))
        # non-zero, so that every page is a real one: a zero-filled
        # buffer never written to is one shared page of zeros, and
        # replies sent from it would flatter the raw socket
        outbox = memoryview(b"\x5a" * common.RAW_MAX)
        header = memoryview(bytearray(common.RAW_HDR.size))
        try:
            while True:
                common.recv_exact_into(conn, header)
                flags, n_in, n_out = common.RAW_HDR.unpack(header)
                if n_in > common.RAW_MAX or n_out > common.RAW_MAX:
                    raise ConnectionError("raw request over the size limit")
                if n_in:
                    common.recv_exact_into(conn, inbox[:n_in])
                if flags & common.RAW_ONEWAY:
                    continue
                ack = common.RAW_ACK.pack(n_in)
                if n_out <= common.RAW_JOIN:
                    conn.sendall(ack + bytes(outbox[:n_out]))
                else:
                    conn.sendall(ack)
                    conn.sendall(outbox[:n_out])
        except (ConnectionError, OSError):
            pass  # the driver hung up
        finally:
            conn.close()

    def handle(self, msg: dict) -> dict:
        if msg["cmd"] in ("cpu", "stats"):
            return process_stats()
        return {"error": f"unknown command {msg['cmd']!r}"}

    def stop(self) -> None:
        self.listener.close()
        for conn in self.conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


ROLES = {"echo": EchoRole, "blob": BlobRole, "subs": SubsRole,
         "raw": RawRole}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", required=True, choices=sorted(ROLES))
    ap.add_argument("--cpu", type=int, default=-1,
                    help="CPU to pin this process to (-1: leave as is)")
    ap.add_argument("--scheme", default="tcp")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", default="",
                    help="blob role: the directory to serve")
    args = ap.parse_args(argv)
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})
    role = ROLES[args.role](args)

    def emit(doc: dict) -> None:
        sys.stdout.write(json.dumps(doc) + "\n")
        sys.stdout.flush()

    try:
        emit({"ready": True, **role.start()})
        for line in sys.stdin:
            msg = json.loads(line)
            if msg.get("cmd") == "quit":
                break
            emit(role.handle(msg))
    except KeyboardInterrupt:
        pass  # Ctrl-C reaches the whole process group; just clean up
    finally:
        role.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
