"""The scalar water-filling kernel against the vectorised numpy kernel
it replaced.

``numpy_kernel`` is the previous ``FlowNetwork._kernel``, kept verbatim
as a free function over the network's interned tables. The scalar
kernel must reproduce its rates bit for bit (compared as ``float.hex``)
and its round count on arbitrary components: repeated resources within
a path, capped flows without resources, rate caps equal to a
saturation level, and capacities spanning 1e3..1e12 with deliberate
ties. A metamorphic property checks exact scaling: multiplying every
capacity and rate cap by 2**k multiplies every rate by exactly 2**k
and leaves the round count unchanged.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Engine, FlowNetwork, Resource


def numpy_kernel(capacities, class_rids, class_cap, classes):
    """Vectorised progressive filling over one row per flow (given by
    its path class); returns ``(rates, rounds)``."""
    n = len(classes)
    caps_array = np.asarray(capacities, dtype=float)
    class_ids = [np.asarray(rids, dtype=np.int64) for rids in class_rids]

    id_arrays = [class_ids[c] for c in classes]
    lengths = np.fromiter((len(a) for a in id_arrays), dtype=np.int64, count=n)
    flat = id_arrays[0] if n == 1 else np.concatenate(id_arrays)
    pair_flow = np.repeat(np.arange(n), lengths)
    # Compact the component's resources to local ids 0..m-1.
    uniq, pair_res = np.unique(flat, return_inverse=True)
    m = int(uniq.shape[0])
    caps_local = caps_array[uniq]
    fixed_load = np.zeros(m)  # sum of already-fixed rates per resource
    pending = np.bincount(pair_res, minlength=m)
    rate_caps = np.fromiter((class_cap[c] for c in classes), dtype=float, count=n)
    fixed = np.zeros(n, dtype=bool)
    rates = np.zeros(n, dtype=float)
    pair_live = np.ones(pair_flow.shape[0], dtype=bool)
    rounds = 0

    while not fixed.all():
        rounds += 1
        pending_mask = pending > 0
        if pending_mask.any():
            levels = np.where(
                pending_mask,
                (caps_local - fixed_load) / np.maximum(pending, 1),
                np.inf,
            )
            level_min = float(levels.min())
            if level_min < 0.0:
                level_min = 0.0  # float dust: resource already over-filled
        else:
            levels = None
            level_min = np.inf
        cap_min = float(rate_caps[~fixed].min())
        level = level_min if level_min < cap_min else cap_min
        if not np.isfinite(level):
            raise SimulationError("flow without binding constraint")

        newly = np.zeros(n, dtype=bool)
        if levels is not None and level_min <= level:
            saturated = pending_mask & (levels <= level)
            if saturated.any():
                hit = saturated[pair_res] & pair_live
                if hit.any():
                    newly[pair_flow[hit]] = True
        newly |= rate_caps <= level
        newly &= ~fixed
        if not newly.any():
            # Numerical corner: nothing bound this round. Fix all
            # remaining flows at the current level to terminate.
            newly = ~fixed
        rates[newly] = level
        fixed |= newly
        dead = newly[pair_flow] & pair_live
        if dead.any():
            dead_res = pair_res[dead]
            pending -= np.bincount(dead_res, minlength=m)
            fixed_load += np.bincount(
                dead_res, weights=np.full(dead_res.shape[0], level), minlength=m
            )
            pair_live &= ~dead

    return rates, rounds


@st.composite
def components(draw):
    """``(capacities, flows)``: each flow a ``(resource indices, rate
    cap or None)``. Capacities come from a small pool so equal values
    tie; some caps are set to a resource's capacity over a user count,
    which is a saturation level the kernel can reach."""
    pool = draw(
        st.lists(
            st.floats(min_value=1e3, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=4,
        )
    )
    n_res = draw(st.integers(min_value=1, max_value=12))
    capacities = [draw(st.sampled_from(pool)) for _ in range(n_res)]
    n_flows = draw(st.integers(min_value=1, max_value=80))
    flows = []
    for _ in range(n_flows):
        path = draw(
            st.lists(st.integers(min_value=0, max_value=n_res - 1), max_size=6)
        )
        if path and draw(st.booleans()):
            path.append(draw(st.sampled_from(path)))  # repeated resource
        kind = draw(st.sampled_from(("none", "none", "free", "level")))
        if not path and kind == "none":
            kind = "free"  # a pathless flow needs a cap
        if kind == "none":
            cap = None
        elif kind == "free":
            cap = draw(st.floats(min_value=1e2, max_value=1e12, allow_nan=False))
        else:
            j = draw(st.integers(min_value=0, max_value=n_res - 1))
            cap = capacities[j] / draw(st.integers(min_value=1, max_value=n_flows))
        flows.append((path, cap))
    return capacities, flows


def _network(capacities, flows, scale=1.0):
    """A network with every flow's path class interned; returns it and
    the class of each flow."""
    net = FlowNetwork(Engine())
    resources = [Resource(f"r{j}", c * scale) for j, c in enumerate(capacities)]
    classes = [
        net.intern(
            tuple(resources[j] for j in path), None if cap is None else cap * scale
        )
        for path, cap in flows
    ]
    return net, classes


def _hex(rates):
    return [float(r).hex() for r in rates]


@settings(max_examples=200, deadline=None)
@given(components())
def test_scalar_kernel_matches_numpy_kernel(component):
    net, classes = _network(*component)
    rates, rounds = net._kernel(classes)
    want, want_rounds = numpy_kernel(
        net._capacities, net._class_rids, net._class_cap, classes
    )
    assert _hex(rates) == _hex(want.tolist())
    assert rounds == want_rounds


@settings(max_examples=100, deadline=None)
@given(components(), st.integers(min_value=-20, max_value=20))
def test_kernel_scales_exactly_by_powers_of_two(component, k):
    scale = 2.0**k
    net, classes = _network(*component)
    rates, rounds = net._kernel(classes)
    scaled_net, scaled_classes = _network(*component, scale=scale)
    scaled, scaled_rounds = scaled_net._kernel(scaled_classes)
    assert _hex(scaled) == _hex(r * scale for r in rates)
    assert scaled_rounds == rounds


def test_kernel_shapes_on_a_shared_link():
    """Three flows on one link, one capped below the fair share: the
    cap binds first, the rest split the leftover in a second round."""
    net, classes = _network([100.0], [([0], 10.0), ([0], None), ([0, 0], None)])
    rates, rounds = net._kernel(classes)
    want, want_rounds = numpy_kernel(
        net._capacities, net._class_rids, net._class_cap, classes
    )
    assert rates == [10.0, 30.0, 30.0]
    assert rounds == 2
    assert _hex(rates) == _hex(want.tolist()) and rounds == want_rounds
