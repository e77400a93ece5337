(** The list-walking CAE well-formedness checker, the differential
    oracle for {!Argus_ir.Fused.check_cae}. *)

val check : Argus_cae.Cae.t -> Argus_core.Diagnostic.t list
(** Codes under ["cae/"]: ["cae/dangling-link"],
    ["cae/claim-without-argument"], ["cae/multiple-arguments"],
    ["cae/empty-argument"], ["cae/evidence-not-leaf"],
    ["cae/bad-support"], ["cae/cycle"], ["cae/no-root"],
    ["cae/empty-text"]. *)

val is_well_formed : Argus_cae.Cae.t -> bool
