"""Fleet front: health-checked routing, sharding and transparent failover.

``VerifyRouter`` speaks the same ``repro-serve-v1`` frame protocol on both
sides.  Clients connect to it exactly as they would to a single server;
behind it a fleet of :class:`~repro.serve.server.VerifyServer` members does
the work.  The router owns three jobs:

**Routing.**  Every verify request is hashed to its true certificate-store
key (the same SHA-256 the members use for caching and coalescing — computed
once here, memoized by request fingerprint) and the key's leading byte
picks a shard: ``int(key[:2], 16) * len(members) // 256``.  The same query
therefore always lands on the same member, which is what makes the member's
result cache and in-flight coalescing effective fleet-wide.  When a shard's
member is down the request fails over to the next healthy member — a warm
cache is better than a dead socket.

**Health.**  One persistent connection per member carries forwarded
requests *and* a heartbeat every ``heartbeat_interval_s``; the reply piggy-
backs queue-depth and throttle gauges.  ``heartbeat_misses`` consecutive
silent intervals mark the member down and sever the connection.  Each
member may list a ``standby`` address: on reconnect the router tries the
primary address first, then the standby, and gates on the hello frame's
``role`` — a not-yet-promoted standby is left alone until its takeover
window elects it.

**Failover.**  Forwarded requests are journaled in memory by forward id
(``rt-<n>``).  When a member connection dies, every unanswered forward is
resubmitted verbatim on reconnect — idempotent, because the member
journals accepts by id and coalesces duplicates.  Identical queries from
different clients coalesce *at the router* too (one forward, many client
stakes), and an answered-ids ledger guarantees a client never sees the
same result twice even if a resubmission races a recovery replay.

Chaos: reconnect attempts consult the ``router-partition`` fault site, so
the soak can sever the router from a member without touching either
process.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import logging
import os
import signal
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.key import cache_key
from repro.faults import injection as _fault_injection
from repro.obs import telemetry as _telemetry
from repro.serve.protocol import (
    OP_DRAIN,
    OP_HEARTBEAT,
    OP_PING,
    OP_PROGRESS,
    OP_STATS,
    OP_STATUS,
    OP_VERIFY,
    PROTOCOL,
    ProtocolError,
    open_addr,
    read_frame,
    write_frame,
)
from repro.serve.server import _resolve_property, _task_from_request, set_event_threadsafe

log = logging.getLogger("repro.serve.router")


@dataclass
class MemberSpec:
    """One fleet member: a primary address and an optional hot standby."""

    name: str
    addr: str
    standby_addr: Optional[str] = None

    def addrs(self) -> List[str]:
        return [a for a in (self.addr, self.standby_addr) if a]


@dataclass
class RouterConfig:
    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    members: List[MemberSpec] = field(default_factory=list)
    #: heartbeat cadence per member connection
    heartbeat_interval_s: float = 0.5
    #: consecutive silent intervals before a member is marked down
    heartbeat_misses: int = 3
    #: how long an admission waits for *any* healthy member before rejecting
    route_wait_s: float = 5.0
    #: reconnect backoff bounds for member links
    backoff_s: float = 0.05
    max_backoff_s: float = 1.0


class _Stake:
    """One client's claim on a forwarded request."""

    __slots__ = ("conn", "request_id", "accepted_sent")

    def __init__(self, conn: "_ClientConn", request_id: str) -> None:
        self.conn = conn
        self.request_id = request_id
        self.accepted_sent = False


class _Forward:
    """One routed request: a member-side id plus the client stakes on it."""

    def __init__(self, forward_id: str, key: str, request: dict) -> None:
        self.forward_id = forward_id
        self.key = key
        #: the frame sent to the member (op=verify, id=forward_id)
        self.request = request
        self.stakes: List[_Stake] = []
        self.member: Optional[_Member] = None
        self.accepted = False
        self.answered = False
        self.sent_t = time.monotonic()
        self.span = None

    def alive_stakes(self) -> List[_Stake]:
        return [s for s in self.stakes if s.conn.alive]


class _ClientConn:
    """Per-client connection: serialized writes, stakes by request id."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.send_lock = asyncio.Lock()
        self.alive = True

    async def send(self, document: dict) -> bool:
        if not self.alive:
            return False
        try:
            async with self.send_lock:
                await write_frame(self.writer, document)
            return True
        except (ConnectionError, OSError):
            self.alive = False
            return False


class _Member:
    """Router-side state of one fleet member."""

    def __init__(self, spec: MemberSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.healthy = False
        self.misses = 0
        self.connects = 0
        self.partitions = 0
        self.resubmitted = 0
        self.hello: dict = {}
        #: gauges from the last heartbeat reply
        self.health: dict = {}
        self.last_heartbeat_t: Optional[float] = None
        #: unanswered forwards pinned to this member, by forward id
        self.inflight: Dict[str, _Forward] = {}
        self.reader = None
        self.writer = None
        self.send_lock = asyncio.Lock()
        self.task: Optional[asyncio.Task] = None
        self.heartbeat_task: Optional[asyncio.Task] = None
        self.connected_addr: Optional[str] = None

    @property
    def connected(self) -> bool:
        return self.writer is not None

    async def send(self, document: dict) -> bool:
        writer = self.writer
        if writer is None:
            return False
        try:
            async with self.send_lock:
                await write_frame(writer, document)
            return True
        except (ConnectionError, OSError):
            return False

    def sever(self) -> None:
        """Drop the link (reconnect loop picks it back up)."""
        writer, self.writer, self.reader = self.writer, None, None
        if writer is not None:
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()

    def status(self) -> dict:
        return {
            "name": self.name,
            "addr": self.spec.addr,
            "standby_addr": self.spec.standby_addr,
            "connected_addr": self.connected_addr if self.connected else None,
            "healthy": self.healthy,
            "misses": self.misses,
            "connects": self.connects,
            "partitions": self.partitions,
            "resubmitted": self.resubmitted,
            "inflight": len(self.inflight),
            "health": dict(self.health),
        }


class VerifyRouter:
    """See the module docstring; one instance = one routing process."""

    def __init__(self, config: RouterConfig) -> None:
        if not config.socket_path and not config.host:
            raise ValueError("router needs a unix socket path or a TCP host")
        if not config.members:
            raise ValueError("router needs at least one member")
        self.config = config
        self.members = [_Member(spec) for spec in config.members]
        self.draining = False
        #: live forwards by forward id, and by routing key (for coalescing)
        self.forwards: Dict[str, _Forward] = {}
        self.by_key: Dict[str, _Forward] = {}
        #: forward ids already answered: the zero-duplicate-replies ledger
        self.answered_ids: set = set()
        #: request fingerprint -> routing key (the expensive hash, once)
        self._key_memo: Dict[str, str] = {}
        self.counters = {
            "accepted": 0,
            "answered": 0,
            "rejected": 0,
            "coalesced": 0,
            "forwarded": 0,
            "failed_over": 0,
            "duplicate_replies_suppressed": 0,
            "progress_relayed": 0,
            "member_reconnects": 0,
            "member_downs": 0,
        }
        self._next_forward = 0
        self._connections: set = set()
        self._listener = None
        self._shutdown = asyncio.Event()
        self._member_state_changed = asyncio.Event()
        self._router_span = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def request_shutdown(self) -> None:
        """Start the drain; safe to call from any thread."""
        set_event_threadsafe(self._loop, self._shutdown)

    async def serve_forever(self) -> None:
        recorder = _telemetry.get_recorder()
        if recorder is not None:
            self._router_span = recorder.start_span(
                "serve.router",
                pid=os.getpid(),
                protocol=PROTOCOL,
                members=[m.name for m in self.members],
            )
        loop = asyncio.get_running_loop()
        self._loop = loop
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, self.request_shutdown)
        for member in self.members:
            member.task = asyncio.create_task(self._member_loop(member))
        if self.config.socket_path:
            if os.path.exists(self.config.socket_path):
                os.unlink(self.config.socket_path)
            self._listener = await asyncio.start_unix_server(
                self._handle_client, path=self.config.socket_path
            )
            where = self.config.socket_path
        else:
            self._listener = await asyncio.start_server(
                self._handle_client, host=self.config.host, port=self.config.port
            )
            where = f"{self.config.host}:{self.config.port}"
        log.info(
            "router listening on %s over %d member(s)", where, len(self.members)
        )
        try:
            await self._shutdown.wait()
        finally:
            self.draining = True
            self._listener.close()
            await self._listener.wait_closed()
            for member in self.members:
                for task in (member.task, member.heartbeat_task):
                    if task is not None:
                        task.cancel()
                        with contextlib.suppress(asyncio.CancelledError):
                            await task
                member.sever()
            if self._router_span is not None:
                self._router_span.finish(outcome="drained")
            if self.config.socket_path:
                with contextlib.suppress(OSError):
                    os.unlink(self.config.socket_path)

    # ------------------------------------------------------------------
    # member links
    # ------------------------------------------------------------------
    async def _member_loop(self, member: _Member) -> None:
        """Own one member's link: connect, resubmit, read until it dies."""
        backoff = self.config.backoff_s
        epoch = 0
        while not self._shutdown.is_set():
            epoch += 1
            if _fault_injection.router_partition(f"{member.name}:{epoch}"):
                # chaos: the wire to this member is cut for one attempt
                member.partitions += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.config.max_backoff_s)
                continue
            connected = False
            for addr in member.spec.addrs():
                try:
                    reader, writer = await open_addr(addr)
                    hello = await asyncio.wait_for(read_frame(reader), 5.0)
                except (ConnectionError, OSError, asyncio.TimeoutError,
                        ProtocolError):
                    continue
                if not isinstance(hello, dict) or hello.get("role") != "primary":
                    # a standby holds this address: leave it be until its
                    # takeover window promotes it
                    writer.close()
                    continue
                member.reader, member.writer = reader, writer
                member.connected_addr = addr
                member.hello = hello
                member.connects += 1
                connected = True
                break
            if not connected:
                self._mark_down(member)
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.config.max_backoff_s)
                continue
            backoff = self.config.backoff_s
            self.counters["member_reconnects"] += 1
            await self._resubmit(member)
            self._mark_healthy(member)
            if member.heartbeat_task is None or member.heartbeat_task.done():
                member.heartbeat_task = asyncio.create_task(
                    self._heartbeat_loop(member)
                )
            try:
                await self._member_read_loop(member)
            except (ConnectionError, OSError, ProtocolError):
                pass
            finally:
                member.sever()
                self._mark_down(member)

    async def _resubmit(self, member: _Member) -> None:
        """Replay every unanswered forward on a fresh link (idempotent)."""
        for forward in list(member.inflight.values()):
            if forward.answered:
                member.inflight.pop(forward.forward_id, None)
                continue
            if not await member.send(forward.request):
                return
            member.resubmitted += 1

    async def _member_read_loop(self, member: _Member) -> None:
        reader = member.reader
        while reader is not None and member.writer is not None:
            frame = await read_frame(reader)
            if frame is None:
                return
            if not isinstance(frame, dict):
                continue
            op = frame.get("op")
            if op == "heartbeat-reply":
                member.misses = 0
                member.last_heartbeat_t = time.monotonic()
                member.health = {
                    name: frame.get(name)
                    for name in (
                        "queue_depth", "active", "concurrency", "repl_lag",
                        "accepted", "answered", "cancelled", "draining",
                        "uptime_s",
                    )
                }
                self._mark_healthy(member)
            elif op == "accepted":
                await self._on_accepted(member, frame)
            elif op == "rejected":
                await self._on_rejected(member, frame)
            elif op == "result":
                await self._on_result(member, frame)
            elif op == OP_PROGRESS:
                await self._on_progress(member, frame)
            # anything else (pong, draining, ...) is noise to the router

    async def _heartbeat_loop(self, member: _Member) -> None:
        n = 0
        while member.connected and not self._shutdown.is_set():
            n += 1
            pending = await member.send(
                {"op": OP_HEARTBEAT, "id": f"hb-{member.name}-{n}"}
            )
            sent_t = time.monotonic()
            await asyncio.sleep(self.config.heartbeat_interval_s)
            if not member.connected:
                return
            if not pending or (
                member.last_heartbeat_t is None
                or member.last_heartbeat_t < sent_t
            ):
                member.misses += 1
                if member.misses >= self.config.heartbeat_misses:
                    # silent too long: declare it down and force a reconnect
                    log.warning(
                        "member %s missed %d heartbeat(s); severing",
                        member.name, member.misses,
                    )
                    member.sever()
                    self._mark_down(member)
                    return

    def _mark_healthy(self, member: _Member) -> None:
        if not member.healthy:
            member.healthy = True
            member.misses = 0
            self._member_state_changed.set()
            _telemetry.counter("router.member_up")

    def _mark_down(self, member: _Member) -> None:
        if member.healthy:
            member.healthy = False
            self.counters["member_downs"] += 1
            _telemetry.counter("router.member_down")
        self._member_state_changed.set()

    # ------------------------------------------------------------------
    # member frames -> client stakes
    # ------------------------------------------------------------------
    async def _on_accepted(self, member: _Member, frame: dict) -> None:
        forward = self.forwards.get(frame.get("id"))
        if forward is None:
            return
        forward.accepted = True
        self.counters["accepted"] += len(
            [s for s in forward.stakes if not s.accepted_sent]
        )
        for stake in forward.alive_stakes():
            if stake.accepted_sent:
                continue
            stake.accepted_sent = True
            await stake.conn.send(
                {
                    "ok": True,
                    "op": "accepted",
                    "id": stake.request_id,
                    "key": forward.key,
                    "member": member.name,
                    "coalesced": bool(frame.get("coalesced")),
                }
            )

    async def _on_rejected(self, member: _Member, frame: dict) -> None:
        forward = self.forwards.get(frame.get("id"))
        if forward is None:
            return
        if frame.get("reason") == "standby":
            # lost a promotion race: the link loop reconnects and
            # resubmits once the hello shows a primary again
            member.sever()
            return
        self._retire(forward)
        self.counters["rejected"] += len(forward.stakes)
        for stake in forward.alive_stakes():
            await stake.conn.send(
                {
                    "ok": False,
                    "op": "rejected",
                    "id": stake.request_id,
                    "reason": frame.get("reason"),
                    "member": member.name,
                }
            )

    async def _on_result(self, member: _Member, frame: dict) -> None:
        forward_id = frame.get("id")
        forward = self.forwards.get(forward_id)
        if forward is None or forward_id in self.answered_ids:
            # a resubmission raced a recovery replay: one reply per
            # client, the ledger eats the echo
            self.counters["duplicate_replies_suppressed"] += 1
            return
        self.answered_ids.add(forward_id)
        forward.answered = True
        self._retire(forward)
        if forward.span is not None:
            forward.span.finish(outcome="answered")
            forward.span = None
        self.counters["answered"] += len(forward.stakes)
        for stake in forward.alive_stakes():
            reply = dict(frame)
            reply["id"] = stake.request_id
            reply["member"] = member.name
            await stake.conn.send(reply)

    async def _on_progress(self, member: _Member, frame: dict) -> None:
        forward = self.forwards.get(frame.get("id"))
        if forward is None:
            return
        self.counters["progress_relayed"] += 1
        for stake in forward.alive_stakes():
            relay = dict(frame)
            relay["id"] = stake.request_id
            relay["member"] = member.name
            await stake.conn.send(relay)

    def _retire(self, forward: _Forward) -> None:
        self.forwards.pop(forward.forward_id, None)
        if self.by_key.get(forward.key) is forward:
            self.by_key.pop(forward.key, None)
        if forward.member is not None:
            forward.member.inflight.pop(forward.forward_id, None)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        conn = _ClientConn(reader, writer)
        self._connections.add(conn)
        await conn.send(
            {
                "op": "hello",
                "protocol": PROTOCOL,
                "pid": os.getpid(),
                "role": "router",
                "server_id": "router",
                "members": [m.name for m in self.members],
            }
        )
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as error:
                    await conn.send({"ok": False, "error": str(error)})
                    break
                if request is None:
                    break
                if not isinstance(request, dict):
                    await conn.send(
                        {"ok": False, "error": "request must be an object"}
                    )
                    continue
                await self._handle_request(conn, request)
        except (ConnectionError, OSError):
            pass
        finally:
            conn.alive = False
            self._connections.discard(conn)
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    async def _handle_request(self, conn: _ClientConn, request: dict) -> None:
        op = request.get("op")
        if op == OP_PING:
            await conn.send(
                {"ok": True, "op": "pong", "draining": self.draining}
            )
        elif op in (OP_STATS, OP_STATUS):
            reply_op = "stats" if op == OP_STATS else "status"
            await conn.send(
                {"ok": True, "op": reply_op, reply_op: self.status_doc()}
            )
        elif op == OP_HEARTBEAT:
            await conn.send(
                {
                    "ok": True,
                    "op": "heartbeat-reply",
                    "id": request.get("id"),
                    "role": "router",
                    "server_id": "router",
                    "healthy_members": sum(
                        1 for m in self.members if m.healthy
                    ),
                    "accepted": self.counters["accepted"],
                    "answered": self.counters["answered"],
                    "uptime_s": time.monotonic() - self._started_at,
                }
            )
        elif op == OP_DRAIN:
            await conn.send({"ok": True, "op": "draining"})
            self.request_shutdown()
        elif op == OP_VERIFY:
            await self._route(conn, request)
        else:
            await conn.send({"ok": False, "error": f"unknown op {op!r}"})

    async def _route(self, conn: _ClientConn, request: dict) -> None:
        request_id = str(request.get("id") or f"req-{uuid.uuid4().hex[:12]}")
        if self.draining:
            await conn.send(
                {"ok": False, "op": "rejected", "id": request_id,
                 "reason": "draining"}
            )
            return
        try:
            key = await self._routing_key(request)
        except Exception as error:  # noqa: BLE001 - reply, don't die
            await conn.send(
                {"ok": False, "op": "rejected", "id": request_id,
                 "reason": f"bad request: {error}"}
            )
            return

        stake = _Stake(conn, request_id)
        existing = self.by_key.get(key)
        if existing is not None and not existing.answered:
            # router-side coalescing: same query from another box shares
            # the one forward already in flight
            existing.stakes.append(stake)
            self.counters["coalesced"] += 1
            _telemetry.counter("router.coalesced")
            if existing.accepted:
                stake.accepted_sent = True
                self.counters["accepted"] += 1
                await conn.send(
                    {"ok": True, "op": "accepted", "id": request_id,
                     "key": key, "coalesced": True}
                )
            return

        member = await self._pick_member(key)
        if member is None:
            await conn.send(
                {"ok": False, "op": "rejected", "id": request_id,
                 "reason": "no healthy members"}
            )
            return
        self._next_forward += 1
        forward_id = f"rt-{self._next_forward}"
        forwarded = dict(request)
        forwarded["op"] = OP_VERIFY
        forwarded["id"] = forward_id
        forward = _Forward(forward_id, key, forwarded)
        forward.stakes.append(stake)
        forward.member = member
        recorder = _telemetry.get_recorder()
        if recorder is not None:
            forward.span = recorder.start_span(
                "router.request",
                parent=self._router_span,
                key=key,
                member=member.name,
                # the cross-box stitch key: the member's serve.request span
                # carries the same forward id in its ``request`` attr
                request=forward_id,
                client_ids=[request_id],
            )
        self.forwards[forward_id] = forward
        self.by_key[key] = forward
        member.inflight[forward_id] = forward
        self.counters["forwarded"] += 1
        _telemetry.counter("router.forwarded")
        if not await member.send(forwarded):
            # link died under us: the reconnect loop will resubmit from
            # member.inflight — the client just waits a beat longer
            member.sever()

    async def _routing_key(self, request: dict) -> str:
        """The member-identical cache key, memoized by request fingerprint."""
        fingerprint_doc = {
            name: request.get(name)
            for name in ("design", "verilog", "aiger", "top", "property",
                         "representation")
        }
        fingerprint = hashlib.sha256(
            json.dumps(fingerprint_doc, sort_keys=True).encode("utf-8")
        ).hexdigest()
        memoized = self._key_memo.get(fingerprint)
        if memoized is not None:
            return memoized

        def compute() -> str:
            task = _task_from_request(request)
            system = task.load()
            property_name = _resolve_property(system, request.get("property"))
            representation = str(request.get("representation", "word"))
            return cache_key(system, property_name, representation)

        key = await asyncio.to_thread(compute)
        self._key_memo[fingerprint] = key
        return key

    async def _pick_member(self, key: str) -> Optional[_Member]:
        """Shard by key prefix; fail over to the next healthy member."""
        deadline = time.monotonic() + self.config.route_wait_s
        shard = int(key[:2], 16) * len(self.members) // 256
        while True:
            home = self.members[shard]
            if home.healthy:
                return home
            for offset in range(1, len(self.members)):
                candidate = self.members[(shard + offset) % len(self.members)]
                if candidate.healthy:
                    self.counters["failed_over"] += 1
                    _telemetry.counter("router.failed_over")
                    return candidate
            if time.monotonic() >= deadline:
                return None
            # every member is down: wait for the first link to come back
            self._member_state_changed.clear()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._member_state_changed.wait(),
                    max(0.05, deadline - time.monotonic()),
                )

    # ------------------------------------------------------------------
    def status_doc(self) -> dict:
        return {
            "role": "router",
            "uptime_s": time.monotonic() - self._started_at,
            "draining": self.draining,
            "counters": dict(self.counters),
            "forwards_inflight": len(self.forwards),
            "members": [m.status() for m in self.members],
        }
