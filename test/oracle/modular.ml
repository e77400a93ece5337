(* The legacy modular checker: every module through the list-walking
   well-formedness oracle, plus the cross-module rules of
   Argus_gsn.Modular.  The differential oracle for
   Argus_ir.Fused.check_modular. *)

let check t = Argus_gsn.Modular.check_with ~wf:Wellformed.check t
let is_well_formed t = not (Argus_core.Diagnostic.has_errors (check t))
