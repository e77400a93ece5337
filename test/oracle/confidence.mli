(** The [Id.Map] confidence assessment, the differential oracle for
    {!Argus_confidence.Confidence.assess} and
    {!Argus_confidence.Confidence.root_confidence}: a memoised recursion
    over persistent maps, with the path carried as an [Id.Set]. *)

val assess :
  trust:(Argus_core.Evidence.t -> float) ->
  Argus_gsn.Structure.t ->
  float Argus_core.Id.Map.t
(** Confidence per scored id — every non-contextual node and every id
    reached from one over SupportedBy, dangling ones included (scored
    0). *)

val root_confidence :
  trust:(Argus_core.Evidence.t -> float) -> Argus_gsn.Structure.t -> float
(** The first root's entry of {!assess}, 0 for a structure with no
    root. *)
