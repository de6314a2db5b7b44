"""Independent brute-force evaluators used as oracles by the tests.

These deliberately re-derive the semantics with naive list scans and
exhaustive enumeration; they never call into the implementations they
check.  The scheduler oracle is the one exception: it reuses the network's
per-sample dispatch, but drives it by sampling every condition at every
rate tick instead of only after a store mutation, and answers pattern
checks from the person context (``person_context_matches``) instead of
from the store's watches.  The noting oracle (``noting_each_procedure``)
likewise reuses the network, but notes each procedure's writes as that
procedure returns instead of once per outermost dispatch.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import product
from math import ceil

from fluentnet import procedures
from fluentnet.context import (
    BOOLEAN_DOMAIN,
    FALSE_LITERAL,
    NATURAL_DOMAIN,
    OVERWRITE,
    STATE_PROP,
    TIME_PROP,
    TRUE_LITERAL,
    ContextStore,
)
from fluentnet.network import PatternCheck, RuntimeNetwork, bootstrap
from fluentnet.rules import Assign, ClassAtom, Compare, PropertyAtom
from fluentnet.statements import (
    Logic,
    Mask,
    Prec,
    Ref,
    Shift,
    Window,
)


# -- statement operators -----------------------------------------------------

def naive_logical(kind, x, y):
    state = (x.state and y.state) if kind == "and" else (x.state or y.state)
    time = x.time if x.time >= y.time else y.time
    return (state, time)


def naive_precedence(kind, x, y):
    table = {
        "leq": x.time <= y.time,
        "geq": x.time >= y.time,
        "lt": x.time < y.time,
        "gt": x.time > y.time,
    }
    return (table[kind], max(x.time, y.time))


def naive_mask(x, mask):
    return (x.state and mask, x.time)


def naive_shift(x, delta):
    return (x.state, x.time + delta)


def naive_convolve(members, target_state, window_ms):
    matching = []
    for m in members:
        if m.state == target_state:
            matching.append(m)
    if not matching:
        return []
    start = matching[0].time
    for m in matching:
        if m.time < start:
            start = m.time
    out = []
    for m in matching:
        if start <= m.time <= start + window_ms:
            out.append(m)
    out.sort(key=lambda s: (s.time, s.id))
    return out


def naive_convolve_at_least(members, target_state, window_ms, min_count):
    window = naive_convolve(members, target_state, window_ms)
    if not window:
        return (False, 0)
    latest = 0
    for m in window:
        if m.time > latest:
            latest = m.time
    return (len(window) >= min_count, latest)


def naive_aggregate(expr, members):
    """Tree evaluation over a plain list of statements; returns (state, time)."""
    if isinstance(expr, Ref):
        candidates = sorted(
            (m for m in members if m.id == expr.id), key=lambda s: (s.time, s.id)
        )
        if not candidates:
            raise LookupError(expr.id)
        first = candidates[0]
        return (first.state, first.time)
    if isinstance(expr, Logic):
        lx = naive_aggregate(expr.left, members)
        rx = naive_aggregate(expr.right, members)
        state = (lx[0] and rx[0]) if expr.op == "and" else (lx[0] or rx[0])
        return (state, max(lx[1], rx[1]))
    if isinstance(expr, Prec):
        lx = naive_aggregate(expr.left, members)
        rx = naive_aggregate(expr.right, members)
        table = {
            "leq": lx[1] <= rx[1],
            "geq": lx[1] >= rx[1],
            "lt": lx[1] < rx[1],
            "gt": lx[1] > rx[1],
        }
        return (table[expr.op], max(lx[1], rx[1]))
    if isinstance(expr, Mask):
        cx = naive_aggregate(expr.child, members)
        return (cx[0] and expr.mask, cx[1])
    if isinstance(expr, Shift):
        cx = naive_aggregate(expr.child, members)
        return (cx[0], cx[1] + expr.delta_ms)
    if isinstance(expr, Window):
        pool = members if expr.over is None else [m for m in members if m.id in expr.over]
        return naive_convolve_at_least(pool, expr.target_state, expr.window_ms, expr.min_count)
    raise TypeError(expr)


# -- rule matching ------------------------------------------------------------

def brute_force_derivations(rule, snapshot):
    """All deduplicated head values by checking every permutation of the
    class-consistent instances against every atom, with no join planning.

    Candidates per variable come straight from its class atoms (every
    permutation of consistent symbols); each combination is then checked
    against the full body independently.  Each record's property values
    are read off its public fields once per call (``props_of``), not once
    per combination.
    """
    instance_vars: list[str] = []
    for atom in rule.body:
        if isinstance(atom, (ClassAtom, PropertyAtom)) and atom.var not in instance_vars:
            instance_vars.append(atom.var)
    instances = sorted(snapshot.instances.values(), key=_snapshot_order)
    candidates = {var: list(instances) for var in instance_vars}
    for atom in rule.body:
        if isinstance(atom, ClassAtom):
            candidates[atom.var] = [
                inst for inst in candidates[atom.var] if atom.concept in snapshot.classification[inst.id]
            ]
    heads = []
    seen = set()
    props = {inst.id: props_of(inst) for inst in instances}
    for combo in product(*(candidates[var] for var in instance_vars)):
        binding = {var: inst.id for var, inst in zip(instance_vars, combo)}
        for values in _value_assignments(rule.body, binding, props):
            full = dict(binding)
            full.update(values)
            if not _satisfies_all(rule.body, full, props, snapshot.classification):
                continue
            time = full[rule.head.time] if str(rule.head.time).startswith("?") else rule.head.time
            key = (rule.head.instance_id, rule.head.state, time)
            if key not in seen:
                seen.add(key)
                heads.append(key)
    return sorted(heads, key=lambda k: (k[0], k[2]))


def literal_filter(rule, snapshot):
    """Each class variable's candidates by a scan of the whole snapshot:
    the records classified under its concept that pass every literal
    property test the body puts on it, in snapshot order; ``None`` when one
    has none.  This is the filter a matcher that keeps no state lists runs."""
    ordered = sorted(snapshot.instances.values(), key=_snapshot_order)
    candidates = {}
    for atom in rule.body:
        if not isinstance(atom, ClassAtom):
            continue
        tests = [
            (test.prop, test.value)
            for test in rule.body
            if isinstance(test, PropertyAtom) and test.var == atom.var and not str(test.value).startswith("?")
        ]
        found = [
            record
            for record in ordered
            if atom.concept in snapshot.classification[record.id]
            and all(value in props_of(record).get(prop, ()) for prop, value in tests)
        ]
        if not found:
            return None
        candidates[atom.var] = found
    return candidates


def _snapshot_order(record):
    """By time, then id, untimed records last."""
    return (record.time is None, record.time, record.id)


def _value_assignments(body, binding, props):
    """Every assignment of the body's value variables, each drawn from the
    values its property atoms read off the bound records (``props``: each
    record's ``props_of`` by id)."""
    value_vars: dict[str, list] = {}
    for atom in body:
        if isinstance(atom, PropertyAtom) and str(atom.value).startswith("?"):
            record_props = props.get(binding.get(atom.var))
            values = list(record_props.get(atom.prop, ())) if record_props is not None else []
            if atom.value in value_vars:
                value_vars[atom.value] = [v for v in value_vars[atom.value] if v in values]
            else:
                value_vars[atom.value] = values
    names = sorted(value_vars)
    pools = [value_vars[n] for n in names]
    if not names:
        yield {}
        return
    for combo in product(*pools):
        yield dict(zip(names, combo))


def _satisfies_all(body, binding, props, classification):
    # assignments first, to a fixpoint, then every check
    pending = [a for a in body if isinstance(a, Assign)]
    progress = True
    while pending and progress:
        progress = False
        for atom in list(pending):
            left = binding.get(atom.left, atom.left) if str(atom.left).startswith("?") else atom.left
            right = (
                binding.get(atom.right, atom.right)
                if str(atom.right).startswith("?")
                else atom.right
            )
            if isinstance(left, int) and isinstance(right, int):
                binding[atom.var] = left + right
                pending.remove(atom)
                progress = True
    if pending:
        return False
    for atom in body:
        if isinstance(atom, ClassAtom):
            inst_id = binding.get(atom.var)
            if inst_id not in props or atom.concept not in classification[inst_id]:
                return False
        elif isinstance(atom, PropertyAtom):
            record_props = props.get(binding.get(atom.var))
            if record_props is None:
                return False
            wanted = (
                binding.get(atom.value) if str(atom.value).startswith("?") else atom.value
            )
            if wanted not in record_props.get(atom.prop, ()):
                return False
        elif isinstance(atom, Compare):
            left = binding.get(atom.left) if str(atom.left).startswith("?") else atom.left
            right = binding.get(atom.right) if str(atom.right).startswith("?") else atom.right
            if left is None or right is None:
                return False
            if atom.op == "==":
                ok = left == right
            elif atom.op == "!=":
                ok = left != right
            elif atom.op == "<=":
                ok = left <= right
            elif atom.op == ">=":
                ok = left >= right
            elif atom.op == "<":
                ok = left < right
            else:
                ok = left > right
            if not ok:
                return False
    return True


# -- scheduler ---------------------------------------------------------------------

def evaluate_from_scratch(net, state):
    """``RuntimeNetwork.evaluate_condition`` with a pattern check answered
    by ``person_context_matches`` instead of by the store's watch."""
    decl, check = state.decl, state.decl.check
    if isinstance(check, PatternCheck):
        return person_context_matches(net.stores[decl.node], check.prop, check.target_concept) is decl.target
    return RuntimeNetwork.evaluate_condition(net, state)


def unwatched(net):
    """``net`` with its pattern checks answered by ``evaluate_from_scratch``,
    so that a tick loop over it stays independent of the watches."""
    net.evaluate_condition = partial(evaluate_from_scratch, net)
    return net


def tick_groups(net):
    """Each condition's tick group, by condition name, read off the groups'
    members."""
    return {state.decl.name: group for groups in net._by_node.values() for group in groups for state in group.members}


def _take_next_tick(net, until):
    """Sample every condition due at the earliest untaken rate tick, unless
    that tick lies after ``until``; returns whether one was taken."""
    groups = tick_groups(net)
    due = [(groups[name].due_at_or_after(net.clock.now), name) for name in net.conditions]
    if not due:
        return False
    next_time = min(time for time, _ in due)
    if until is not None and next_time > until:
        return False
    net.clock.advance_to(next_time)
    names = [name for time, name in due if time == next_time]
    for name in names:
        groups[name].take_tick(next_time)
    net.sample_and_dispatch([net.conditions[name] for name in names])
    return True


def step(net, until=None):
    """Run the next rate tick (bounded by ``until``); returns the log
    entries it appended.  With no tick due by ``until`` the clock still
    advances to ``until`` and nothing is logged."""
    mark = len(net.log)
    if not _take_next_tick(net, until) and until is not None:
        net.clock.advance_to(until)
    return net.log[mark:]


def run_until(net, until):
    """Run every rate tick at or before ``until``, even one at the current
    time that has not been taken yet."""
    mark = len(net.log)
    while _take_next_tick(net, until):
        pass
    return net.log[mark:]


def tick_replay(events, scenario):
    """``procedures.run_replay`` in pure-virtual mode, with the tick loop in
    place of ``pending_until`` and pattern checks answered from scratch
    (``unwatched``); returns the rendered dispatch log."""
    implementations, replayer = procedures.build_implementations(
        scenario, procedures.ReplaySession()
    )
    net = unwatched(
        bootstrap(scenario.model, implementations=implementations, store_models=scenario.store_models)
    )
    base_ms = procedures.rebase_offset(events)
    for event in events:
        event = replace(event, time_ms=event.time_ms - base_ms)
        run_until(net, event.time_ms - 1)
        net.clock.advance_to(event.time_ms)
        replayer.replay_step(net, event)
    run_until(net, net.clock.now + procedures.TRAILING_FLUSH_MS)
    return net.render_log()


class FullWalkImporter:
    """An importer with no cursor, a drop-in for ``procedures.Importer``:
    every import visits every sensor of its activity and copies each
    spatial statement whose state and time (read off ``props_of``)
    differ from the ones it last copied of that sensor."""

    def __init__(self, binding, session):
        self.binding = binding
        self.session = session
        self._last = {}

    def __call__(self, net, now_ms):
        spatial = net.stores[procedures.SPATIAL_NODE]
        target = net.stores[self.binding.node]
        imported = 0
        for sensor_id in self.binding.sensor_ids:
            record = spatial.instances.get(sensor_id)
            props = props_of(record) if record is not None else {}
            if STATE_PROP not in props:
                continue
            reading = (props[STATE_PROP][0], props[TIME_PROP][0])
            if self._last.get(sensor_id) == reading:
                continue
            target.assert_statement(sensor_id, *reading)
            self._last[sensor_id] = reading
            imported += 1
        net.emit("import", f"I{self.binding.index}", f"count={imported}")
        target.assert_statement(
            procedures.SYNC_STATEMENT, True, now_ms, concepts=(procedures.SYNC_CONCEPT,), mode=OVERWRITE
        )
        net.notify_sync(self.binding.node, procedures.SYNC_STATEMENT)


def run_procedure_noting_each(net, name):
    """``RuntimeNetwork.run_procedure`` that notes its own writes: it reads
    every store's ``mutation_seq`` before and after the procedure and notes
    each store whose ``mutation_seq`` moved as soon as the procedure returns."""
    stores = list(net.stores.items())
    before = [store.mutation_seq for _, store in stores]
    net.emit("procedure", name)
    try:
        net.procedures[name](net, net.clock.now)
    except Exception as exc:
        net.emit("error", name, f"{type(exc).__name__}: {exc}")
    for (store_name, store), seq in zip(stores, before):
        if store.mutation_seq != seq:
            net.note_mutation(store_name)


def noting_each_procedure(net):
    """``net`` with every procedure noting its own writes.  No procedure of
    it takes the stores' ``mutation_seq`` for its dispatch, so the network's
    once-per-dispatch noting never runs."""
    net.run_procedure = partial(run_procedure_noting_each, net)
    return net


def pending_samples(net):
    """The pending samples: (node, ticks, per ms) of each tick group -> due time."""
    return {(group.store.name, group.ticks, group.per_ms): due for group, due in net._pending.items()}


def fraction_due_at_or_after(rate, last_tick, time_ms):
    """``TickGroup.due_at_or_after`` in ``Fraction`` arithmetic."""
    k = max(last_tick + 1, ceil(Fraction(max(time_ms, 0)) * rate / 1000))
    k = max(k, 1)
    return ceil(Fraction(k * 1000) / rate)


def fraction_take_tick(rate, time_ms):
    """The tick ``TickGroup.take_tick`` records, in ``Fraction`` arithmetic."""
    return int(Fraction(time_ms) * rate // 1000)


# -- classification ------------------------------------------------------------

def closure_from_scratch(graph, asserted):
    """The asserted concepts with every superclass, by a walk over the
    subclass edges, and the disjoint pairs that closure holds, by a scan."""
    closure = set(asserted)
    frontier = list(asserted)
    while frontier:
        concept = frontier.pop()
        for child, parent in graph.subclass_edges:
            if child == concept and parent not in closure:
                closure.add(parent)
                frontier.append(parent)
    clashes = [tuple(sorted(pair)) for pair in graph.disjoint if pair <= closure]
    return frozenset(closure), clashes


def statement_props_from_scratch(statement, decl):
    """The property values a write of ``statement`` stores: its state and
    time, then each declared value of the installation ``decl`` appended in
    order."""
    props = {STATE_PROP: [statement.state], TIME_PROP: [statement.time]}
    for prop, value in decl.properties if decl is not None else ():
        props.setdefault(prop, []).append(value)
    return {prop: tuple(values) for prop, values in props.items()}


def record_from_scratch(graph, asserted, props):
    """What a record of ``asserted`` concepts and ``props`` holds, field by
    field as ``record_fields`` reads them: the asserted set, the closure
    (``closure_from_scratch``), the state and time (the ``hasState`` and
    ``hasTime`` values, ``None`` for a plain instance), the property values and
    the axiom weight, one per asserted concept and per property value; and
    the clashing pairs, with which the write raises."""
    closure, clashes = closure_from_scratch(graph, asserted)
    weight = len(asserted)
    for values in props.values():
        weight += len(values)
    fields = {
        "asserted": frozenset(asserted),
        "closure": closure,
        "state": props[STATE_PROP][0] if STATE_PROP in props else None,
        "time": props[TIME_PROP][0] if TIME_PROP in props else None,
        "props": props,
        "weight": weight,
    }
    return fields, clashes


def props_of(record):
    """Every property value of a stored record, read off its public fields:
    ``hasState`` and ``hasTime`` of a statement, then its template's
    declared values, in a new dict."""
    props = {} if record.time is None else {STATE_PROP: (record.state,), TIME_PROP: (record.time,)}
    props.update(record.template.declared)
    return props


def record_fields(record):
    """The fields ``record_from_scratch`` derives, read off a stored record."""
    return {
        "asserted": record.asserted,
        "closure": record.closure,
        "state": record.state,
        "time": record.time,
        "props": props_of(record),
        "weight": record.weight,
    }


def axiom_weight(record):
    """A record's axiom weight from scratch: its asserted concepts plus its
    property values."""
    return len(record.asserted) + sum(map(len, props_of(record).values()))


def recount_axioms(store):
    """A store's axiom count from scratch: the graph's terms plus every
    record's ``axiom_weight``; it must always equal ``store.axiom_count()``."""
    return store.graph.axiom_terms() + sum(axiom_weight(record) for record in store.instances.values())


def references_from_scratch(store):
    """A store's reference index from scratch: each id whose record names
    other ids in its property values, with the ids it names, and each
    named id, dangling or not, with the ids naming it.  ``store._refs``
    and ``store._referrers`` must always equal it."""
    refs = {}
    referrers = {}
    for inst_id, record in store.instances.items():
        names = frozenset(v for values in props_of(record).values() for v in values if isinstance(v, str))
        if names:
            refs[inst_id] = names
        for name in names:
            referrers.setdefault(name, set()).add(inst_id)
    return refs, referrers


def classify_from_scratch(store):
    """Every instance's membership by the full fixpoint over the whole
    store: asserted closure, then defined classes in name order over the
    instances in id order, pass after pass, skipping any that would clash
    with a disjointness."""
    graph = store.graph
    memberships = {}
    for inst_id, inst in store.instances.items():
        closure = set()
        for concept in inst.asserted:
            closure |= graph.supers(concept)
        memberships[inst_id] = closure
    defined = [graph.defined[name] for name in sorted(graph.defined)]
    changed = True
    while changed:
        changed = False
        for dc in defined:
            candidate = graph.supers(dc.name)
            for inst_id in sorted(memberships):
                current = memberships[inst_id]
                if dc.name in current:
                    continue
                if not all(base in current for base in dc.bases):
                    continue
                if not _satisfies_from_scratch(store.instances[inst_id], dc, memberships):
                    continue
                merged = frozenset(current | candidate)
                if graph.violates_disjointness(merged):
                    continue
                memberships[inst_id] = set(merged)
                changed = True
    return {inst_id: frozenset(v) for inst_id, v in memberships.items()}


def _satisfies_from_scratch(instance, dc, memberships):
    for restriction in dc.restrictions:
        values = props_of(instance).get(restriction.prop, ())
        count = 0
        for value in values:
            if restriction.target == BOOLEAN_DOMAIN:
                ok = isinstance(value, bool)
            elif restriction.target == NATURAL_DOMAIN:
                ok = isinstance(value, int) and not isinstance(value, bool) and value >= 0
            elif restriction.target == TRUE_LITERAL:
                ok = value is True
            elif restriction.target == FALSE_LITERAL:
                ok = value is False
            else:
                ok = isinstance(value, str) and restriction.target in memberships.get(value, ())
            if ok:
                count += 1
        if restriction.bound == ">=" and count < restriction.count:
            return False
        if restriction.bound == "<=" and count > restriction.count:
            return False
        if restriction.bound == "==" and count != restriction.count:
            return False
    return True


def person_context_from_scratch(store, classification):
    """The sorted isIn/isNearTo pairs of every instance of the store's
    presence concept whose state is true, by a scan of all instances."""
    pairs = set()
    for inst_id, instance in store.instances.items():
        if store.presence_concept not in classification[inst_id]:
            continue
        states = props_of(instance).get(STATE_PROP, ())
        if not states or states[0] is not True:
            continue
        for prop in ("isIn", "isNearTo"):
            for target in props_of(instance).get(prop, ()):
                if isinstance(target, str):
                    pairs.add((prop, target))
    return tuple(sorted(pairs))


def person_context_matches_from_scratch(pairs, classification, prop, target_concept):
    """The answer to a ``PERSON:prop:TARGET`` check from the pairs above."""
    return any(p == prop and target_concept in classification.get(t, ()) for p, t in pairs)


def person_context_matches(store, prop, target_concept):
    """The answer to a ``PERSON:prop:TARGET`` check read off the store's
    person context and classification, not off its watches."""
    return person_context_matches_from_scratch(store.infer_person_context(), store.classify(), prop, target_concept)


# -- snapshots and pre-pass tallies --------------------------------------------

def snapshot_from_scratch(store):
    """What a snapshot of the store reads, by sorting and indexing every
    record: the records in ``(time, id)`` order with untimed ones last, the
    from-scratch classification, an id map, and one tuple per concept in
    that order."""
    classification = classify_from_scratch(store)
    ordered = tuple(sorted(store.instances.values(), key=_snapshot_order))
    by_concept = {}
    for record in ordered:
        for concept in classification[record.id]:
            by_concept.setdefault(concept, []).append(record)
    by_id = {record.id: record for record in ordered}
    return ordered, classification, by_id, {c: tuple(v) for c, v in by_concept.items()}


def tally_from_scratch(store, concept, state):
    """A pre-pass source's count, earliest and latest time, from the
    statements ``query_instances`` lists."""
    members = store.query_instances(concept, state_filter=state)
    if not len(members):
        return 0, None, None
    times = [m.time for m in members]
    return len(times), min(times), max(times)


def kept_snapshot(store, plans=(), keys=()):
    """``store.snapshot()`` once the store keeps every ``(concept, state)``
    the class atoms of ``plans`` read, and every key of ``keys``: a
    snapshot hands out only the lists its store keeps."""
    for plan in plans:
        for _, concept, state in plan.classes:
            store.keep(concept, state)
    for concept, state in keys:
        store.keep(concept, state)
    return store.snapshot()


def store_copy(store):
    """A new store holding ``store``'s records and append counters, with
    nothing kept and nothing classified: its first read recomputes every
    instance."""
    copy = ContextStore(
        store.name, store.graph, store.installations, store.person_id, store.default_mode, store.presence_concept
    )
    for record in store.instances.values():
        copy._put(record)
    copy._sequence = dict(store._sequence)
    return copy
