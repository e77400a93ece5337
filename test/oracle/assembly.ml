(* DSL case assembly as the parser did it before building through
   [Structure.of_nodes]: fold [add_node] and [add_evidence] over the
   declarations in source order, skipping a node whose id was already
   declared (the parser reports it), then fold [connect] over the
   links in declaration order.  Quadratic, and the oracle for the
   linear assembly. *)

module Id = Argus_core.Id
module Evidence = Argus_core.Evidence
module Node = Argus_gsn.Node
module Structure = Argus_gsn.Structure

type item =
  | Node of Node.t * Id.t list * Id.t list
  | Evidence of Evidence.t

let assemble items =
  let seen = Hashtbl.create 16 in
  let structure, pending, dups =
    List.fold_left
      (fun (s, pending, dups) -> function
        | Evidence e -> (Structure.add_evidence e s, pending, dups)
        | Node (n, supported, contexts) ->
            if Hashtbl.mem seen n.Node.id then (s, pending, n.Node.id :: dups)
            else begin
              Hashtbl.add seen n.Node.id ();
              ( Structure.add_node n s,
                pending
                @ List.map (fun d -> (Structure.Supported_by, n.Node.id, d)) supported
                @ List.map (fun d -> (Structure.In_context_of, n.Node.id, d)) contexts,
                dups )
            end)
      (Structure.empty, [], []) items
  in
  ( List.fold_left
      (fun s (kind, src, dst) -> Structure.connect kind ~src ~dst s)
      structure pending,
    List.rev dups )
