"""Seeded random step scripts and deployment maps for synthesis tests.

Everything is driven by one stdlib Random instance, so case #k is the
same text on every run and every machine. Each case writes resource
entries both as bare names and as objects carrying any subset of
``replicas``, ``queue_capacity`` and ``balancer``, gives some nodes
disks, and links every pair of nodes, one link resource carrying two
node pairs.
"""

from __future__ import annotations

import random

_POLICIES = ("jsq", "round_robin", "random")


def _resource_entry(rng: random.Random, name: str) -> str | dict:
    if rng.random() < 0.3:
        return name
    entry: dict = {"name": name}
    if rng.random() < 0.5:
        entry["replicas"] = rng.randint(1, 4)
    if rng.random() < 0.5:
        entry["queue_capacity"] = rng.choice(("inf", 0, 2, 8))
    if rng.random() < 0.5:
        entry["balancer"] = rng.choice(_POLICIES)
    return entry


def _demand(rng: random.Random) -> str:
    kind = rng.choice(("exp", "det", "uniform"))
    mean = rng.uniform(0.01, 0.2)
    if kind == "exp":
        return f"exp {1.0 / mean!r}"
    if kind == "det":
        return f"det {mean!r}"
    return f"uniform {mean * 0.5!r} {mean * 1.5!r}"


def random_deployment(case: int) -> tuple[str, dict]:
    """The step script text and deployment document for seed ``case``."""
    rng = random.Random(0xDE9107 + case)
    nodes: dict[str, list] = {}
    for n in range(rng.randint(3, 4)):
        # the first entry is the node's processor, the rest its disks
        names = [f"n{n}_cpu"] + [f"n{n}_disk{d}" for d in range(rng.randint(0, 2))]
        nodes[f"node{n}"] = [_resource_entry(rng, name) for name in names]

    node_names = list(nodes)
    pairs = [(a, b) for i, a in enumerate(node_names) for b in node_names[i + 1 :]]
    rng.shuffle(pairs)
    shared = _resource_entry(rng, "shared_net")
    links = [{"between": list(pairs[0]), "resource": shared}, {"between": list(reversed(pairs[1])), "resource": shared}]
    links.extend({"between": list(pair), "resource": _resource_entry(rng, f"net{k}")} for k, pair in enumerate(pairs[2:]))

    participants = [f"p{k}" for k in range(rng.randint(2, 5))]
    bindings = {p: rng.choice(node_names) for p in participants}
    lines = [f"# random case {case}"]
    for k in range(rng.randint(1, 6)):
        src, dst = rng.choice(participants), rng.choice(participants)
        disk = " @disk" if len(nodes[bindings[dst]]) > 1 and rng.random() < 0.5 else ""
        lines.append(f"{src} -> {dst} : step {k} [{_demand(rng)}]{disk}")
    return "\n".join(lines) + "\n", {"bindings": bindings, "nodes": nodes, "links": links}
