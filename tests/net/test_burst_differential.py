"""A burst is the per-frame path, searched rather than sampled.

``test_link_fastpath.py`` pins the burst ≡ per-frame identity at a few
hand-picked schedules.  This draws the schedules instead: clean chains
of 2–4 nodes whose links are slow and shallow enough to tail-drop, a
window of 1–40 sends at non-decreasing times with drawn sizes, an
optional ``revoke_after`` at a drawn instant and an optional
back-to-back second window — seeded with the first window's
``projected_tx_free`` when the first ran whole, started cold after a
revocation (the two ways ``ClientSession`` opens its next window).

The per-frame reference sends, with ``UdpSocket.sendto``, exactly the
frames the bursts put on the wire: every frame of each window, less
the first window's frames sent after the revocation instant.  Both runs
must agree on every ``(time, payload)`` delivery, every direction's
``LinkStats``, both sockets' counters and every direction's final
transmitter-free time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.address import Endpoint
from repro.net.link import LinkParams
from repro.net.network import Network
from repro.net.udp import UdpSocket
from repro.sim.core import Simulator

PORT = 7000

#: Gaps between consecutive sends: ties, gaps shorter than one
#: serialization (a queue builds) and gaps longer (it drains).
GAPS = (0.0, 0.0005, 0.001, 0.002, 0.004, 0.008, 0.013)

link_params = st.builds(
    LinkParams,
    delay_s=st.sampled_from((0.0, 0.0005, 0.001, 0.003)),
    bandwidth_bps=st.sampled_from((2e5, 5e5, 1e6, 4e6)),
    queue_packets=st.integers(min_value=1, max_value=4),
)


@st.composite
def windows(draw, min_size, max_size):
    """``(gaps, sizes)`` of one window: offsets from its first send."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    gaps = [0.0] + [draw(st.sampled_from(GAPS)) for _ in range(n - 1)]
    sizes = [draw(st.integers(min_value=0, max_value=1500)) for _ in range(n)]
    return gaps, sizes


def send_times(start, gaps):
    times, t = [], start
    for gap in gaps:
        t = t + gap
        times.append(t)
    return times


@st.composite
def schedules(draw):
    links = draw(st.lists(link_params, min_size=1, max_size=3))
    start = draw(st.sampled_from((0.0, 0.0125, 1.0)))
    gaps, sizes = draw(windows(1, 40))
    first = (send_times(start, gaps), sizes)
    revoke = None
    if draw(st.booleans()):
        span = first[0][-1] - start + 0.02
        revoke = start + span * draw(st.integers(0, 16)) / 16
    second = None
    if draw(st.booleans()):
        # The next window opens after the first window's last send (and
        # after the revocation, when there is one).
        gap = draw(st.sampled_from(GAPS))
        opens = max(first[0][-1], revoke if revoke is not None else start)
        gaps2, sizes2 = draw(windows(1, 20))
        second = (send_times(opens + gap, gaps2), sizes2)
    return links, first, revoke, second


def build_chain(sim, links):
    net = Network(sim)
    net.add_node("n0")
    for i, params in enumerate(links, start=1):
        net.add_node(f"n{i}")
        net.add_link(i - 1, i, params)
    return net


def start_burst(sock, dst, times, sizes, payloads, carry_tx_free=None):
    """One window as a burst; ``payloads[i]`` travels as the i-th frame."""
    return sock.sendto_burst(
        dst, times, sizes, payloads.__getitem__, carry_tx_free=carry_tx_free
    )


def run(links, first, revoke, second, batched):
    sim = Simulator(seed=5)
    net = build_chain(sim, links)
    last = len(links)
    got = []
    receiver = UdpSocket(
        net.node(last), PORT,
        on_receive=lambda d: got.append((sim.now, d.payload)),
    )
    sock = UdpSocket(net.node(0), PORT)
    dst = Endpoint(last, PORT)
    times1, sizes1 = first
    payloads1 = list(range(len(times1)))
    payloads2 = []
    if second is not None:
        payloads2 = [len(times1) + i for i in range(len(second[0]))]
    if batched:
        bursts = []
        sim.call_at(times1[0], lambda: bursts.append(
            start_burst(sock, dst, times1, sizes1, payloads1)
        ))
        if revoke is not None:
            sim.call_at(revoke, lambda: bursts[0].revoke_after(revoke))
        if second is not None:
            def open_second():
                carry = None if revoke is not None else bursts[0].projected_tx_free
                bursts.append(start_burst(
                    sock, dst, second[0], second[1], payloads2,
                    carry_tx_free=carry,
                ))
            sim.call_at(second[0][0], open_second)
    else:
        for t, size, payload in zip(times1, sizes1, payloads1):
            if revoke is None or t <= revoke:
                sim.call_at(t, sock.sendto, dst, payload, size)
        if second is not None:
            for t, size, payload in zip(second[0], second[1], payloads2):
                sim.call_at(t, sock.sendto, dst, payload, size)
    sim.run()
    if batched:
        assert all(burst is not None for burst in bursts)
        assert all(burst.finished for burst in bursts)
    directions = [
        direction for link in net.links()
        for direction in (link.forward, link.backward)
    ]
    return (
        got,
        [vars(direction.stats) for direction in directions],
        (sock.sent_packets, sock.sent_bytes,
         receiver.received_packets, receiver.received_bytes),
        [direction._tx_free_at for direction in directions],
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(schedules())
def test_burst_equals_per_frame_sends(schedule):
    links, first, revoke, second = schedule
    fast = run(links, first, revoke, second, batched=True)
    slow = run(links, first, revoke, second, batched=False)
    assert fast[0] == slow[0]  # (time, payload) of every delivery
    assert fast[1] == slow[1]  # LinkStats, per direction
    assert fast[2] == slow[2]  # socket counters
    assert fast[3] == slow[3]  # final transmitter-free times
