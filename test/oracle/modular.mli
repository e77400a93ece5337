(** The legacy modular checker, the differential oracle for
    {!Argus_ir.Fused.check_modular}. *)

val check : Argus_gsn.Modular.t -> Argus_core.Diagnostic.t list
(** [Argus_gsn.Modular.check_with ~wf:Wellformed.check]: each module
    through {!Wellformed.check}, then the cross-module rules. *)

val is_well_formed : Argus_gsn.Modular.t -> bool
