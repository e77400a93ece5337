(** The quadratic fold the DSL parser used to assemble a case — the
    oracle for its linear {!Argus_gsn.Structure.of_nodes} assembly. *)

type item =
  | Node of Argus_gsn.Node.t * Argus_core.Id.t list * Argus_core.Id.t list
      (** A node with its [supported-by] and [in-context-of] targets. *)
  | Evidence of Argus_core.Evidence.t

val assemble : item list -> Argus_gsn.Structure.t * Argus_core.Id.t list
(** The structure the declarations assemble to, and the ids of the
    node declarations skipped as duplicates, in source order. *)
