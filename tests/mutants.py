"""A catalogue of mutants of the incremental structures (the axiom count
among them) and of the declarative line splitter, as data.

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
            logger.exception("procedure %s failed", name)
            self.emit("error", name, f"{type(exc).__name__}: {exc}")
"""
_BATCH = "            self.sample_and_dispatch(self._take_ticks(batch))\n"
_NOTES_AFTER_BATCH = """\
            if self._seqs is not None:
                for (store_name, store), seq in zip(self._store_order, self._seqs):
                    if store.mutation_seq != seq:
                        self.note_mutation(store_name)
                self._seqs = None
"""

_NOTING = "tests/test_network.py::TestCascade::test_writes_are_noted_as_the_noting_oracle_notes_them"
_TOP_LEVEL_SYNC = "tests/test_network.py::TestNotifySync::test_a_top_level_sync_notes_what_its_procedure_wrote"
_REPLAYS = tuple(
    f"tests/test_procedures.py::TestWriteNoting::test_replays_leave_the_pending_samples_of_the_noting_oracle[{trace}]"
    for trace in ("synthetic", "sessions", "spatial_sweep", "append_growth")
)
_CURSOR = tuple(
    f"tests/test_procedures.py::TestImportCursor::test_a_full_walk_imports_the_same_statements[{trace}]"
    for trace in ("synthetic", "sessions", "spatial_sweep", "append_growth")
)
_DIGESTS = tuple(
    f"tests/test_benchmark_traffic.py::test_first_seed_1_participant_replays_to_the_same_bytes[{workload}]"
    for workload in ("sessions", "spatial_sweep", "append_growth")
) + ("tests/test_cli.py::TestReplay::test_report_bytes_match_the_recorded_digests",)

_RENDER_TEXT = '            self._text += "".join(lines)\n'
_LOG_VIEW = "tests/test_network.py::TestDispatchLog::"
_CRITERION_3 = "tests/test_acceptance.py::test_criterion_3_scheduler_semantics"
_SPLIT = "tests/test_modelio.py::TestSplit::"
_REFERENCE_INDEX = (
    "tests/test_context.py::TestReferenceIndex::"
    "test_index_count_and_person_match_a_recount_after_each_kind_of_overwrite"
)
_AXIOMS = "tests/test_context.py::TestAxioms::"
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
        (
            (
                "self._axioms -= self.instances.pop(instance_id).template.weight",
                "self.instances.pop(instance_id)",
            ),
        ),
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
            # only a write that changes the template does the arithmetic, and no
            # replay or axiom recount test rewrites a record under another template
            "tests/test_context.py::TestWriteTemplates::test_a_template_holds_for_its_declaration_only",
            _REFERENCE_INDEX,
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
    # -- dispatch log: held once as text, with each entry's end recorded
    Mutant(
        "entry-ends-recorded-one-character-short",
        NETWORK,
        (("accumulate(map(len, lines),", "accumulate(map((-1).__add__, map(len, lines)),"),),
        (
            _LOG_VIEW + "test_entries_render_back_to_the_log",
            _LOG_VIEW + "test_a_render_appends_what_was_emitted_since_the_last",
            _LOG_VIEW + "test_reads_across_the_rendered_and_pending_entries_match_a_list",
            "tests/test_network.py::TestStepSemantics::test_procedure_failure_is_captured",
            _CRITERION_3,
        ),
    ),
    Mutant(
        "pending-lines-kept-after-a-render",
        NETWORK,
        (("            lines.clear()\n", ""),),
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
    # -- scheduler: writes noted once per outermost dispatch
    Mutant(
        "notes-only-after-pending-until-batches",
        NETWORK,
        ((_CASCADE_NOTES, "        if False:\n"), (_BATCH, _BATCH + _NOTES_AFTER_BATCH)),
        (_NOTING, _TOP_LEVEL_SYNC) + _REPLAYS,
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
        )
        + _REPLAYS,
    ),
    # -- importer cursor: an import visits only the sensors written since the last
    Mutant(
        "cursor-ignores-the-store-identity",
        PROCEDURES,
        (("seen = self._seen if spatial is self._spatial else 0", "seen = self._seen"),),
        ("tests/test_procedures.py::TestImportCursor::test_a_new_spatial_store_is_read_whole",),
    ),
    Mutant(
        "cursor-skips-one-seq-too-many",
        PROCEDURES,
        (("record.seq <= seen or", "record.seq <= seen + 1 or"),),
        _CURSOR + _DIGESTS,
    ),
    Mutant(
        "import-drops-the-last-reading-check",
        PROCEDURES,
        (("            if self._last.get(sensor_id) == (state, time_ms):\n", "            if False:\n"),),
        ("tests/test_procedures.py::TestImportCursor::test_a_duplicate_reading_imports_nothing",),
    ),
    Mutant(
        "record-seq-stamped-before-the-write",
        CONTEXT,
        (
            (
                "self._put(_record(instance_id, template, state, time, self.mutation_seq + 1, kind))",
                "self._put(_record(instance_id, template, state, time, self.mutation_seq, kind))",
            ),
        ),
        _CURSOR + _DIGESTS,
    ),
    Mutant(
        "cursor-one-ahead",
        PROCEDURES,
        (("current = spatial.mutation_seq\n", "current = spatial.mutation_seq + 1\n"),),
        _CURSOR + _DIGESTS,
    ),
)
