"""A catalogue of mutants of the incremental structures (the axiom count
among them), of the dispatch log, of the declarative line splitter, of
classification, of the rule matcher, of the spatial node's quiet writes
and of the replay loop, as data.

Each entry is one mutant.  ``module`` is a path from the repository root,
and ``edits`` holds the exact text replacements, as (anchor, replacement)
pairs, that turn the module into the mutant.  Each anchor occurs exactly
once in its module; ``test_mutants.py`` checks that, so a refactor that
moves an anchor updates its entry in the same change.  ``killers`` names
the tests, as pytest prints them, that fail on the mutant:
``run_mutants.py`` copies the tree, applies the edits, runs tier-1 (with
``--killers``, those tests first) and checks that each of them failed.
``test_mutants.py`` itself fails on every mutant, as an anchor it looks
for is gone.  This module is not collected by pytest.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str
    edits: tuple[tuple[str, str], ...]
    killers: tuple[str, ...]


NETWORK = "src/fluentnet/network.py"
PROCEDURES = "src/fluentnet/procedures.py"
CONTEXT = "src/fluentnet/context.py"
MODELIO = "src/fluentnet/modelio.py"
RULES = "src/fluentnet/rules.py"

_CASCADE_NOTES = "        if outermost and self._seqs is not None:  # note what the procedures wrote\n"
_SNAPSHOT = """\
        if self._seqs is None:  # the outermost dispatch's first procedure
            self._seqs = [store.mutation_seq for _, store in self._store_order]
"""
_RUN = """\
        self.emit("procedure", name)
        try:
            impl(self, self.clock.now)
        except Exception as exc:  # procedure failure must not halt the loop
            import logging  # only a failing procedure needs it, so a replay's process need not load it

            logging.getLogger(__name__).exception("procedure %s failed", name)
            # one line per entry: the message's lines, joined by spaces
            self.emit("error", name, f"{type(exc).__name__}: {' '.join(str(exc).splitlines())}")
"""
_BATCH = "            self.sample_and_dispatch(states)\n"
_NOTES_AFTER_BATCH = """\
            if self._seqs is not None:
                for (store_name, store), seq in zip(self._store_order, self._seqs):
                    if store.mutation_seq != seq:
                        self.note_mutation(store_name)
                self._seqs = None
"""

_NOTING = "tests/test_network.py::TestCascade::test_writes_are_noted_as_the_noting_oracle_notes_them"
_TOP_LEVEL_SYNC = "tests/test_network.py::TestNotifySync::test_a_top_level_sync_notes_what_its_procedure_wrote"
_DIRTY_SET = "tests/test_context.py::TestDirtySet::"
_SKIP = "tests/test_procedures.py::TestEvaluationSkip::"
_PACING = "tests/test_procedures.py::TestWallClockPacing::"
_DIGESTS = tuple(
    f"tests/test_benchmark_traffic.py::test_first_seed_1_participant_replays_to_the_same_bytes[{workload}]"
    for workload in ("sessions", "spatial_sweep", "append_growth")
) + ("tests/test_cli.py::TestReplay::test_report_bytes_match_the_recorded_digests",)

_KEEP_DIFFERING = """\
            group.differing = differing
            if group not in pending:
"""
_NOTE_CLASSIFIES = """\
            if group.watched:
                store.classify()  # brings the watches up to date
"""
_NOTES = "tests/test_network.py::TestNotes::"
_FLOOR = "tests/test_network.py::TestSweptFloor::"

_RENDER_TEXT = '            self._text += "".join(self._lines)\n'
_LOG_VIEW = "tests/test_network.py::TestDispatchLog::"
_CRITERION_3 = "tests/test_acceptance.py::test_criterion_3_scheduler_semantics"
_SPLIT = "tests/test_modelio.py::TestSplit::"
_REFERENCE_INDEX = (
    "tests/test_context.py::TestReferenceIndex::"
    "test_index_count_and_person_match_a_recount_after_each_kind_of_overwrite"
)
_AXIOMS = "tests/test_context.py::TestAxioms::"
_LITERAL_TARGETS = "tests/test_context.py::TestClassify::test_literal_targets_and_every_bound_match_the_oracle"
_CRITERION_8 = "tests/test_acceptance.py::test_criterion_8_rule_engine_equivalence"
_EARLIEST = "tests/test_rules.py::TestEarliest::"
_GRID = "tests/test_rules.py::test_shipped_models_match_brute_force_where_compared_times_meet"
_RECOUNTS = (
    _AXIOMS + "test_incremental_matches_recount_over_random_sequences",
    _AXIOMS + "test_bookkeeping_invariant_holds_for_any_sequence",
    "tests/test_procedures.py::TestRecognitionLifecycle::test_axiom_count_drops_to_floor_at_recognition",
    "tests/test_acceptance.py::test_criterion_4_boundedness",
)

MUTANTS = (
    # -- axiom count: kept incrementally, checked against oracles.recount_axioms
    Mutant(
        "drop-forgets-the-weight",
        CONTEXT,
        (("        self._axioms -= template.weight\n", ""),),
        _RECOUNTS
        + (
            "tests/test_benchmark_traffic.py::test_first_seed_1_participant_replays_to_the_same_bytes[sessions]",
            "tests/test_cli.py::TestReplay::test_report_bytes_match_the_recorded_digests",
        ),
    ),
    Mutant(
        "put-keeps-the-old-weight",
        CONTEXT,
        (("                self._axioms -= previous.template.weight\n", "                pass\n"),),
        (
            # only a write that changes the template does the arithmetic: no replay
            # rewrites a record under another template, the random recount does
            "tests/test_context.py::TestWriteTemplates::test_a_template_holds_for_its_declaration_only",
            _REFERENCE_INDEX,
            _AXIOMS + "test_incremental_matches_recount_over_random_sequences",
        ),
    ),
    # -- same-template write: only the record and the dirty set change
    Mutant(
        "same-template-write-leaves-the-id-clean",
        CONTEXT,
        (("                self._dirty.add(instance_id)\n", "                pass\n"),),
        (
            _REFERENCE_INDEX,
            "tests/test_context.py::TestClassify::test_read_only_view_until_the_next_mutation",
            "tests/test_context.py::TestKeptLists::test_defined_class_flip_moves_the_sync_statement",
            "tests/test_procedures.py::TestReplayStep::test_each_reading_reclassifies_one_spatial_instance",
            "tests/test_procedures.py::TestSchedulerOracle::test_run_replay_matches_the_tick_loop",
            "tests/test_benchmark_traffic.py::test_first_seed_1_participant_replays_to_the_same_bytes[sessions]",
            "tests/test_cli.py::TestReplay::test_report_bytes_match_the_recorded_digests",
        ),
    ),
    Mutant(
        "same-template-test-reads-the-weight",
        CONTEXT,
        (("previous.template is template", "previous.template.weight == template.weight"),),
        (_REFERENCE_INDEX,)
        + tuple(
            f"tests/test_context.py::TestWatches::test_pair_target_changed_in_the_batch_that_drops_the_pair[{retarget}]"
            for retarget in ("reclassify", "remove")
        ),
    ),
    # -- declarative lines: shlex splits only a line holding a quote or a backslash
    Mutant(
        "plain-line-test-ignores-the-backslash",
        MODELIO,
        ((r"""['\"\\]""", r"""['\"]"""),),
        (
            _SPLIT + "test_any_line_splits_or_fails_on_its_line_as_shlex_does",
            _SPLIT + "test_fixed_lines[escaped-blank]",
            _SPLIT + "test_fixed_lines[escaped-hash]",
        ),
    ),
    Mutant(
        "plain-line-keeps-its-comment",
        MODELIO,
        (('_WORD.findall(line.partition("#")[0])', "_WORD.findall(line)"),),
        (
            _SPLIT + "test_a_plain_line_splits_as_shlex_splits_it_without_shlex",
            _SPLIT + "test_any_line_splits_or_fails_on_its_line_as_shlex_does",
            _SPLIT + "test_fixed_lines[comment-inside-a-word]",
        ),
    ),
    # -- reference index: a write moves an id from its previous record's names
    Mutant(
        "touch-moves-from-the-new-names",
        CONTEXT,
        (("self._touch(instance_id, old, template.names)", "self._touch(instance_id, template.names, template.names)"),),
        (
            _REFERENCE_INDEX,
            "tests/test_context.py::TestDirtySet::test_matches_a_full_fixpoint_after_every_read[monotone]",
            "tests/test_context.py::TestDirtySet::test_matches_a_full_fixpoint_after_every_read[bounded]",
            "tests/test_context.py::TestDirtySet::test_full_recompute_only_on_first_read_and_fallbacks",
            "tests/test_context.py::TestWriteTemplates::test_memo_reads_the_named_ids_closures",
        ),
    ),
    # -- dirty set: the dirty ids are reclassified alone only when none has a
    # referrer and none names an enriched id.  The generated TestDirtySet and
    # TestKeptLists reads also kill these, but only in some runs, so they are
    # not catalogued
    Mutant(
        "stays-local-ignores-referrers",
        CONTEXT,
        (
            (
                "            if inst_id in self._referrers:\n                return False\n",
                "            if inst_id in self._referrers:\n                pass\n",
            ),
        ),
        (
            _DIRTY_SET + "test_full_recompute_only_on_first_read_and_fallbacks",
            _SKIP + "test_a_full_recompute_moves_lists_it_places_nothing_in",
            _SKIP + "test_runs_in_full_after_a_change_to_what_it_reads[full recompute]",
        ),
    ),
    Mutant(
        "stays-local-ignores-enriched-targets",
        CONTEXT,
        (("len(membership) > len(named.closure)", "False"),),
        (_DIRTY_SET + "test_full_recompute_only_on_first_read_and_fallbacks",),
    ),
    # -- kept lists: one store counter moves when a record enters or leaves one
    Mutant(
        "lists-version-kept-when-a-record-leaves",
        CONTEXT,
        (
            (
                "                    del kept.records[bisect_left(kept.records, key, key=snapshot_order)]\n"
                "                self.lists_version += 1\n",
                "                    del kept.records[bisect_left(kept.records, key, key=snapshot_order)]\n",
            ),
        ),
        (
            "tests/test_context.py::TestKeptLists::test_equal_versions_mean_the_same_records",
            "tests/test_procedures.py::TestEvaluationSkip::test_defined_class_flip_out_runs_in_full",
        )
        + tuple(
            f"tests/test_procedures.py::TestEvaluationSkip::test_runs_in_full_after_a_change_to_what_it_reads[{case}]"
            for case in ("class-atom record removed", "pre-pass result removed")
        ),
    ),
    # -- dispatch log: held once as text, one line per entry
    Mutant(
        "error-detail-keeps-its-line-break",
        NETWORK,
        (("{' '.join(str(exc).splitlines())}", "{exc}"),),
        (
            _LOG_VIEW + "test_entries_index_and_slice",
            _LOG_VIEW + "test_entries_render_back_to_the_log",
            _LOG_VIEW + "test_a_render_appends_what_was_emitted_since_the_last",
            _LOG_VIEW + "test_reads_across_the_rendered_and_pending_entries_match_a_list",
            _LOG_VIEW + "test_an_error_message_is_one_line_and_score_reads_the_logged_recognitions",
            # net.log splits the text into lines, as the benchmark's log tally reads it
            "benchmarks/test_benchmark.py::test_procedure_error_with_multiline_message_fails_cleanly",
        ),
    ),
    Mutant(
        "pending-lines-kept-after-a-render",
        NETWORK,
        (("            self._lines.clear()\n", ""),),
        (
            _LOG_VIEW + "test_entries_render_back_to_the_log",
            _LOG_VIEW + "test_a_render_appends_what_was_emitted_since_the_last",
            _LOG_VIEW + "test_a_render_with_nothing_new_returns_the_same_text",
            _LOG_VIEW + "test_reads_across_the_rendered_and_pending_entries_match_a_list",
            "tests/test_procedures.py::TestRetainedRecords::test_a_result_holds_its_dispatch_log_once",
            _CRITERION_3,
        ),
    ),
    Mutant(
        "render-replaces-the-text",
        NETWORK,
        ((_RENDER_TEXT, _RENDER_TEXT.replace("+=", "=")),),
        (
            _LOG_VIEW + "test_a_render_appends_what_was_emitted_since_the_last",
            "tests/test_network.py::TestStepSemantics::test_edge_trigger_and_consumption",
            _CRITERION_3,
        ),
    ),
    # -- scheduler: writes noted once per outermost dispatch.  No replay kills
    # these two: every write a replayed cascade makes is caught up by a sync
    # before the cascade ends, so the note there keeps no member
    Mutant(
        "notes-only-after-pending-until-batches",
        NETWORK,
        ((_CASCADE_NOTES, "        if False:\n"), (_BATCH, _BATCH + _NOTES_AFTER_BATCH)),
        (_NOTING, _TOP_LEVEL_SYNC),
    ),
    Mutant(
        "nested-sync-notes-and-ends-the-noting",
        NETWORK,
        ((_CASCADE_NOTES, _CASCADE_NOTES.replace("outermost and ", "")),),
        (_NOTING,),
    ),
    Mutant(
        "snapshot-after-the-first-procedure",
        NETWORK,
        ((_SNAPSHOT + _RUN, _RUN + _SNAPSHOT),),
        (
            _NOTING,
            _TOP_LEVEL_SYNC,
            "tests/test_network.py::TestCascade::test_a_procedure_that_writes_and_raises_has_its_write_noted",
            "tests/test_network.py::TestTickGroups::test_cascade_mutating_its_node_at_the_tick_time",
            _FLOOR + "test_a_cascade_writing_an_idle_group_waits_for_the_next_tick",
            _FLOOR + "test_a_quiet_note_before_the_cascade_moves_no_tick",
        ),
    ),
    # -- scheduler: a note keeps the members that differ, behind the swept-time floor
    Mutant(
        "swept-floor-dropped",
        NETWORK,
        (("swept_ms * self.ticks // self.per_ms + 1", "1"),),
        (
            _FLOOR + "test_a_cascade_writing_an_idle_group_waits_for_the_next_tick",
            _FLOOR + "test_a_quiet_note_before_the_cascade_moves_no_tick",
            "tests/test_network.py::TestTickGroups::test_cascade_mutating_its_node_at_the_tick_time",
            "tests/test_network.py::TestTicks::test_integer_ticks_equal_the_fraction_formulas",
        ),
    ),
    Mutant(
        "pending-group-keeps-its-members",
        NETWORK,
        ((_KEEP_DIFFERING, "            if group not in pending:\n                group.differing = differing\n"),),
        (
            _NOTES + "test_a_second_write_before_the_tick_adds_to_the_pending_sample",
            "tests/test_network.py::TestCascade::test_two_conditions_rising_in_one_sample_fire_their_event_once",
        ),
    ),
    Mutant(
        "agreeing-group-stays-pending",
        NETWORK,
        (("                pending.pop(group, None)\n", ""),),
        (
            _NOTES + "test_a_write_that_restores_agreement_drops_the_pending_sample",
            "tests/test_network.py::TestTickGroups::test_answer_flipping_back_between_two_ticks",
        ),
    ),
    Mutant(
        "note-reads-the-watches-unclassified",
        NETWORK,
        ((_NOTE_CLASSIFIES, ""),),
        (
            _NOTES + "test_a_pattern_write_is_noted_before_the_store_classifies",
            "tests/test_context.py::TestWatches::test_watched_answers_follow_every_write[bounded-piled-up]",
        ),
    ),
    # -- cascade: an event stays consumed from firing until a condition rises
    Mutant(
        "event-fires-while-consumed",
        NETWORK,
        (("if not event.consumed and all(", "if all("),),
        (
            "tests/test_network.py::TestCascade::test_two_conditions_rising_in_one_sample_fire_their_event_once",
            "tests/test_network.py::TestCascade::test_a_condition_observed_twice_fires_once_per_rise",
        ),
    ),
    # -- classification: literal targets and bounds of a defined class
    Mutant(
        "exact-bound-never-rejects",
        CONTEXT,
        (('            if restriction.bound == "==" and count != restriction.count:\n                return False\n', ""),),
        (_LITERAL_TARGETS,),
    ),
    Mutant(
        "natural-counts-booleans",
        CONTEXT,
        (
            (
                "ok = isinstance(value, int) and not isinstance(value, bool) and value >= 0\n"
                "                elif restriction.target == TRUE_LITERAL",
                "ok = isinstance(value, int) and value >= 0\n                elif restriction.target == TRUE_LITERAL",
            ),
        ),
        (_LITERAL_TARGETS,),
    ),
    Mutant(
        "boolean-counts-integers",
        CONTEXT,
        (
            (
                "                    ok = isinstance(value, bool)\n                elif restriction.target == NATURAL_DOMAIN",
                "                    ok = isinstance(value, (bool, int))\n                elif restriction.target == NATURAL_DOMAIN",
            ),
        ),
        (_LITERAL_TARGETS,),
    ),
    # -- rule matcher: one pinned search, and the builtins it evaluates
    Mutant(
        "head-offset-dropped",
        RULES,
        (("pinned = heads[start].time + plan.head_offset", "pinned = heads[start].time"),),
        (
            _EARLIEST + "test_equals_the_minimum_of_evaluate_on_random_models",
            _EARLIEST + "test_a_shifted_head_is_pinned[3000]",
        ),
    ),
    Mutant(
        "shift-chain-stops-after-one",
        RULES,
        (("    while head_time in shifts:\n", "    if head_time in shifts:\n"),),
        (
            _EARLIEST + "test_equals_the_minimum_of_evaluate_on_random_models",
            "tests/test_rules.py::TestRegistration::test_compiled_random_models_register",
        ),
    ),
    Mutant(
        "inclusive-comparison-made-strict",
        RULES,
        (("return lhs <= rhs if op", "return lhs < rhs if op"),),
        # criterion 8 misses it: no two times it compares are equal in its 800 snapshots
        (_GRID, "tests/test_rules.py::TestBuiltins::test_inclusive_comparison"),
    ),
    Mutant(
        "distinct-guard-always-holds",
        RULES,
        (("        return lhs != rhs\n", "        return True\n"),),
        (
            _CRITERION_8,
            _GRID,
            "tests/test_rules.py::TestEvaluation::test_inequality_needs_two_instances",
            "tests/test_rules.py::TestBuiltins::test_identity_difference",
        ),
    ),
    # -- importer: a sensor's record is copied unless it is the reading last copied
    Mutant(
        "import-drops-the-last-reading-check",
        PROCEDURES,
        (
            (
                "            if copied is not None and record.time == copied.time and record.state == copied.state:\n",
                "            if False:\n",
            ),
        ),
        ("tests/test_procedures.py::TestImporter::test_a_duplicate_reading_imports_nothing",),
    ),
    Mutant(
        "import-forgets-what-it-copied",
        PROCEDURES,
        (("            last[sensor_id] = record\n", ""),),
        ("tests/test_procedures.py::TestImporter::test_a_duplicate_reading_imports_nothing",) + _DIGESTS,
    ),
    # -- quiet writes: a spatial reading no check can see is neither classified nor noted
    Mutant(
        "motion-sensor-marked-quiet",
        PROCEDURES,
        (
            (
                "        lends = (presence in lifted or any(presence in supers(concept) for concept in decl.concepts)) and any(\n",
                "        lends = presence in lifted and any(\n",
            ),
        ),
        (
            "tests/test_procedures.py::TestQuietWrites::test_the_shipped_quiet_writes",
            "tests/test_procedures.py::TestQuietWrites::test_a_replay_without_the_table_writes_the_same_bytes[sessions]",
            "tests/test_procedures.py::TestSchedulerOracle::test_whole_benchmark_trace_matches_the_tick_loop[spatial_sweep]",
            "tests/test_same_bytes.py::test_every_participant_replays_to_the_pinned_bytes[sessions-1]",
        ),
    ),
    Mutant(
        "quiet-ignores-kept-lists",
        PROCEDURES,
        (("    if any(binding.node == SPATIAL_NODE for binding in bindings.values()):\n", "    if False:\n"),),
        ("tests/test_procedures.py::TestQuietWrites::test_what_a_check_or_a_record_can_see_is_live[an-activity-bound-to-L]",),
    ),
    # -- replay loop: each reading paced, rebased, and asserted at the clock's time
    Mutant(
        "replay-step-writes-the-raw-time",
        PROCEDURES,
        (("event.value, net.clock.now)", "event.value, event.time_ms)"),),
        (
            _PACING + "test_a_reading_is_asserted_at_its_rebased_time",
            # tick_replay hands replay_step a rebased copy of each reading
            "tests/test_procedures.py::TestSchedulerOracle::test_run_replay_matches_the_tick_loop",
            "tests/test_procedures.py::TestSchedulerOracle::test_whole_benchmark_trace_matches_the_tick_loop[sessions]",
            "tests/test_same_bytes.py::test_the_synthetic_session_replays_to_the_pinned_bytes",
            "tests/test_same_bytes.py::test_every_participant_replays_to_the_pinned_bytes[sessions-1]",
            _DIGESTS[0],
            _DIGESTS[-1],
        ),
    ),
    Mutant(
        "pacing-forgets-the-previous-reading",
        PROCEDURES,
        (("        previous = event.time_ms\n", ""),),
        (_PACING + "test_gaps_divided_by_speed", _PACING + "test_readings_at_the_same_ms_take_no_nap"),
    ),
)
