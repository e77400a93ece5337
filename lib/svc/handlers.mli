(** The standard request handlers: one service request in, one
    response out, running the same engines as the CLI subcommands.

    [handle] never writes to channels and never raises on bad {e
    input} — malformed sources come back as an [Ok] response with exit
    1 and a diagnostics payload, mirroring the CLI exit taxonomy.  A
    genuine crash (a bug, or an injected fault) escapes to the
    supervisor, which is the whole point: the supervisor owns the
    crash protocol.

    Budget ownership: the supervisor mints the budget, so [handle]
    appends the budget's diagnostics to its report but the exhaustion
    state is recorded on the supervisor's value. *)

val check_source :
  ruleset:Argus_gsn.Wellformed.ruleset ->
  lints:bool ->
  ?budget:Argus_rt.Budget.t ->
  filename:string ->
  string ->
  (Argus_core.Diagnostic.t list, Argus_core.Diagnostic.t list) result
(** The one [check] pipeline, shared by [argus check] and the [Check]
    op.  It parses the source; a single unnamed case runs one fused
    pass ({!Argus_ir.Fused.check}), and a multi-module file runs
    {!Argus_ir.Fused.check_modular}, which interns each module once.
    [Ok] carries the report: well-formedness, metadata, lint (when
    [lints]) and budget findings, in that order.  [Error] carries the
    findings of a source that does not parse or whose modules do not
    form a collection. *)

val handle :
  Protocol.request -> budget:Argus_rt.Budget.t option -> Protocol.response
(** [Health] requests are answered by the server before the queue and
    are a [svc/bad-request] error here.  The store ops ([Put], [Patch],
    [Verdict]) are [svc/bad-request] too — this is the stateless
    handler; start the server with a store to serve them. *)

val with_store :
  Argus_store.Durable.t ->
  Protocol.request ->
  budget:Argus_rt.Budget.t option ->
  Protocol.response
(** The stateful handler: [Put] parses the source (one unnamed case)
    and interns it, answering its digest; [Patch] applies the edit
    batch to the addressed case, answering the new digest; [Verdict]
    answers the stored case's report (byte-identical to a [check] of
    the same source), its root confidence, and whether it came
    entirely from cache.  Unknown digests are [svc/unknown-digest],
    bad edit batches are [svc/bad-request], and a store tripped into
    read-only by a disk failure answers [svc/store-read-only] with
    the cause.  Everything else delegates to {!handle}.  The store
    serialises internally, so one store may back all workers. *)
