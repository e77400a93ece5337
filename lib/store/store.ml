(* The incremental assurance-case store: content-addressed cases,
   flat-sum digests and memoized per-node verdicts.

   The heavy-traffic workload is many clients mutating large living
   cases, each edit needing a fast re-verdict — not one-shot batch
   checks.  A full re-check of a 100k-node case pays a full intern
   plus a full fused pass per edit; here an edit re-checks only its
   dirty cone:

   - {e Flat-sum digests.}  The case digest is MD5 of an
     order-independent, invertible 128-bit sum with one term per node
     payload (id, type, status, text, formal rendering, annotations,
     evidence citation), one per link (kind, source id, target id)
     and one per evidence entry.  Equal nodes, links (as a multiset)
     and evidence give equal digests whatever the insertion order, and
     cycles and dangling endpoints need no special case.  A payload
     edit swaps the edited node's term out of the sum and the new one
     in: O(edited nodes), whatever the depth or fan-out above it.

   - {e Verdict memo.}  Each node's well-formedness findings and
     per-node lints depend on a small, explicit input set: its
     payload, its support degree, its SupportedBy parents' universal
     flags, the evidence table's answer for its citation, its
     goal-like children's ids and content words, its reachability bit
     and whether the case has roots ({!Argus_ir.Fused.node_findings}
     documents this).  A digest of exactly those inputs keys a
     bounded, domain-safe memo of the per-node diagnostic lists —
     [store.reused_verdicts] counts reuse, [store.dirty_cone] counts
     the nodes actually re-checked.  FIFO eviction never changes a
     result: a miss just re-derives.

   A verdict reassembles the cached per-link, shape and per-node
   findings in {!Argus_ir.Fused.check}'s emission order, re-runs the
   (fuel-capped) circular-support walk, and applies the same stable
   sort — byte-identical to a full [Fused.check] of the same
   structure, which test/store holds it to after every random edit.

   Every operation runs under one mutex: correctness first, and the
   per-op work after the first put is tiny.  The gauge [store.nodes]
   tracks live nodes across cases. *)

module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Node = Argus_gsn.Node
module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Confidence = Argus_confidence.Confidence
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Counter = Argus_obs.Counter
module Gauge = Argus_obs.Metrics.Gauge
module ISet = Set.Make (Int)

type edit =
  | Set_text of Id.t * string
  | Add_node of Node.t
  | Remove_node of Id.t
  | Link of Structure.link * Id.t * Id.t
  | Unlink of Structure.link * Id.t * Id.t

type error = Unknown_digest of string | Bad_edit of string

let error_message = function
  | Unknown_digest d -> Printf.sprintf "no case with digest %s" d
  | Bad_edit msg -> msg

type verdict = {
  vdigest : string;
  result : Fused.result;
  confidence : float;
  from_memo : bool;
}

let c_reused = Counter.make "store.reused_verdicts"
let c_dirty = Counter.make "store.dirty_cone"
let g_nodes = Gauge.make "store.nodes"

let default_trust (_ : Evidence.t) = 0.9

type case_state = {
  mutable structure : Structure.t;
  ruleset : Wellformed.ruleset;
  mutable ir : Caseir.t;
  mutable sum : Bytes.t;  (** Rolling 128-bit sum of all terms. *)
  mutable digest : string;
  mutable keys : string array;  (** Per node: verdict-memo key. *)
  mutable wf_node : Diagnostic.t list array;
  mutable inf_node : Diagnostic.t list array;
  mutable wf_idx : ISet.t;  (** Nodes with nonempty wf findings. *)
  mutable inf_idx : ISet.t;
  mutable link_wf : Diagnostic.t list;  (** All per-link findings. *)
  mutable shape_wf : Diagnostic.t list;  (** Cycle + roots findings. *)
  mutable cached : (Fused.result * float) option;
      (** The assembled verdict, valid until the next patch. *)
  mutable conf : float option;
      (** Root confidence; survives text edits (confidence never
          reads node text), dies with any other edit. *)
}

type t = {
  mu : Mutex.t;
  cases : (string, case_state) Hashtbl.t;
  memo : (string, Diagnostic.t list * Diagnostic.t list) Hashtbl.t;
  memo_fifo : string Queue.t;
  memo_capacity : int;
}

let create ?(memo_capacity = 1 lsl 18) () =
  if memo_capacity < 1 then invalid_arg "Store.create: memo_capacity < 1";
  {
    mu = Mutex.create ();
    cases = Hashtbl.create 16;
    memo = Hashtbl.create 1024;
    memo_fifo = Queue.create ();
    memo_capacity;
  }

(* --- digests --- *)

(* 128-bit byte-wise sum with carry: associative, commutative and
   invertible, so terms can be added and removed incrementally and the
   result never depends on insertion order. *)
let sum_zero () = Bytes.make 16 '\000'

let sum_add acc (d : string) =
  let carry = ref 0 in
  for b = 0 to 15 do
    let v = Char.code (Bytes.get acc b) + Char.code d.[b] + !carry in
    Bytes.set acc b (Char.chr (v land 0xff));
    carry := v lsr 8
  done

let sum_sub acc (d : string) =
  let borrow = ref 0 in
  for b = 0 to 15 do
    let v = Char.code (Bytes.get acc b) - Char.code d.[b] - !borrow in
    Bytes.set acc b (Char.chr (v land 0xff));
    borrow := if v < 0 then 1 else 0
  done

(* The local digest covers the full payload — id, type, status, text,
   formal rendering, annotations, evidence citation.  Marshal is
   deterministic on this pure data and spares a hand-rolled codec. *)
let local_digest (n : Node.t) = Digest.string ("n\x00" ^ Marshal.to_string n [])
let evidence_digest ev = Digest.string ("e\x00" ^ Marshal.to_string ev [])

let link_digest kind src dst =
  Digest.string
    (String.concat "\x00"
       [
         "l";
         (match kind with
         | Structure.Supported_by -> "s"
         | Structure.In_context_of -> "c");
         Id.to_string src;
         Id.to_string dst;
       ])

(* The case sum: one term per node payload, per link and per evidence
   entry.  [nodes] is the structure's node table — the IR's array on a
   put, so the structure's node list is not rebuilt. *)
let case_sum (nodes : Node.t array) structure =
  let sum = sum_zero () in
  Array.iter (fun n -> sum_add sum (local_digest n)) nodes;
  List.iter
    (fun (kind, src, dst) -> sum_add sum (link_digest kind src dst))
    (Structure.links structure);
  List.iter
    (fun ev -> sum_add sum (evidence_digest ev))
    (Structure.evidence structure);
  sum

let render_digest sum = Digest.to_hex (Digest.string (Bytes.to_string sum))

let digest_of structure =
  render_digest
    (case_sum (Array.of_list (Structure.nodes structure)) structure)

(* --- verdict-memo keys --- *)

let status_tag = function
  | Node.Developed -> "d"
  | Node.Undeveloped -> "u"
  | Node.Uninstantiated -> "i"
  | Node.Undeveloped_uninstantiated -> "w"

(* Exactly the inputs of [Fused.node_findings] + [node_lint_findings]
   for node [i] — see the intro comment.  Two nodes with equal keys
   produce equal diagnostic lists, which is what lets the memo serve
   across cases and across edits. *)
let node_key (ir : Caseir.t) i =
  let b = Buffer.create 160 in
  let n = ir.Caseir.nodes.(i) in
  Buffer.add_string b "k1\x00";
  Buffer.add_string b (Id.to_string ir.Caseir.ids.(i));
  Buffer.add_char b '\x00';
  Buffer.add_string b (Node.type_to_string n.Node.node_type);
  Buffer.add_char b '\x00';
  Buffer.add_string b (status_tag n.Node.status);
  Buffer.add_char b '\x00';
  Buffer.add_string b n.Node.text;
  Buffer.add_char b '\x00';
  let unsupported =
    ir.Caseir.sup_out_off.(i + 1) = ir.Caseir.sup_out_off.(i)
  in
  Buffer.add_char b (if unsupported then '1' else '0');
  Buffer.add_char b (if ir.Caseir.reachable.(i) then '1' else '0');
  Buffer.add_char b (if ir.Caseir.roots <> [] then '1' else '0');
  (match n.Node.node_type with
  | Node.Solution ->
      (match n.Node.evidence with
      | None -> Buffer.add_string b "ev:-"
      | Some ev_id -> (
          Buffer.add_string b "ev:";
          Buffer.add_string b (Id.to_string ev_id);
          Buffer.add_char b ':';
          match Structure.find_evidence ev_id ir.Caseir.structure with
          | None -> Buffer.add_char b '?'
          | Some ev ->
              Buffer.add_string b (Evidence.kind_to_string ev.Evidence.kind)));
      (* SupportedBy parents in link order: id and whether the parent
         is a universal goal-like claim (the weak-evidence inputs). *)
      for k = ir.Caseir.sup_in_off.(i) to ir.Caseir.sup_in_off.(i + 1) - 1 do
        let pi = ir.Caseir.sup_in.(k) in
        if pi < ir.Caseir.n_nodes then begin
          Buffer.add_string b "\x00p:";
          Buffer.add_string b (Id.to_string ir.Caseir.ids.(pi));
          Buffer.add_char b
            (if ir.Caseir.goal_like.(pi) && ir.Caseir.universal.(pi) then 'u'
             else '-')
        end
      done
  | _ -> ());
  (* Goal-like SupportedBy children in link order: id and content
     words (the equivocation-lint inputs). *)
  for k = ir.Caseir.sup_out_off.(i) to ir.Caseir.sup_out_off.(i + 1) - 1 do
    let j = ir.Caseir.sup_out.(k) in
    if j < ir.Caseir.n_nodes && ir.Caseir.goal_like.(j) then begin
      Buffer.add_string b "\x00g:";
      Buffer.add_string b (Id.to_string ir.Caseir.ids.(j));
      Buffer.add_char b ':';
      Buffer.add_string b ir.Caseir.norm.(j)
    end
  done;
  Digest.string (Buffer.contents b)

(* --- per-node verdicts through the memo --- *)

let node_verdict store st i =
  let key = st.keys.(i) in
  match Hashtbl.find_opt store.memo key with
  | Some v ->
      Counter.incr c_reused;
      v
  | None ->
      Counter.incr c_dirty;
      let v = (Fused.node_findings st.ir i, Fused.node_lint_findings st.ir i) in
      Hashtbl.add store.memo key v;
      Queue.add key store.memo_fifo;
      if Queue.length store.memo_fifo > store.memo_capacity then
        Hashtbl.remove store.memo (Queue.pop store.memo_fifo);
      v

let set_node_verdict st i (wf, inf) =
  st.wf_node.(i) <- wf;
  st.wf_idx <-
    (if wf = [] then ISet.remove i st.wf_idx else ISet.add i st.wf_idx);
  st.inf_node.(i) <- inf;
  st.inf_idx <-
    (if inf = [] then ISet.remove i st.inf_idx else ISet.add i st.inf_idx)

(* --- building and rebuilding case state --- *)

(* Full (re)build from a structure: intern, then recompute digests,
   keys, per-node verdicts (mostly memo hits after a shape edit) and
   the link/shape findings. *)
let rebuild store st structure =
  let ir = Caseir.intern structure in
  let n = ir.Caseir.n_nodes in
  st.structure <- structure;
  st.ir <- ir;
  st.sum <- case_sum ir.Caseir.nodes structure;
  st.digest <- render_digest st.sum;
  st.keys <- Array.make (max 1 n) "";
  st.wf_node <- Array.make (max 1 n) [];
  st.inf_node <- Array.make (max 1 n) [];
  st.wf_idx <- ISet.empty;
  st.inf_idx <- ISet.empty;
  for i = 0 to n - 1 do
    st.keys.(i) <- node_key ir i;
    set_node_verdict st i (node_verdict store st i)
  done;
  st.link_wf <- Fused.link_findings ~ruleset:st.ruleset ir;
  st.shape_wf <- Fused.shape_findings ir;
  st.cached <- None

let fresh_state ruleset =
  {
    structure = Structure.empty;
    ruleset;
    ir = Caseir.intern Structure.empty;
    sum = sum_zero ();
    digest = "";
    keys = [||];
    wf_node = [||];
    inf_node = [||];
    wf_idx = ISet.empty;
    inf_idx = ISet.empty;
    link_wf = [];
    shape_wf = [];
    cached = None;
    conf = None;
  }

let update_gauge store =
  Gauge.set g_nodes
    (Hashtbl.fold (fun _ st acc -> acc + st.ir.Caseir.n_nodes) store.cases 0)

let locked store f =
  Mutex.lock store.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock store.mu) f

(* --- operations --- *)

let put_replacing ?(ruleset = Wellformed.Standard) store structure =
  locked store (fun () ->
      let st = fresh_state ruleset in
      rebuild store st structure;
      st.conf <- None;
      let prior =
        Option.map
          (fun old -> (old.ruleset, old.structure))
          (Hashtbl.find_opt store.cases st.digest)
      in
      Hashtbl.replace store.cases st.digest st;
      update_gauge store;
      (st.digest, prior))

let put ?ruleset store structure = fst (put_replacing ?ruleset store structure)

let mem store digest =
  locked store (fun () -> Hashtbl.mem store.cases digest)

let case store digest =
  locked store (fun () ->
      Option.map
        (fun st -> st.structure)
        (Hashtbl.find_opt store.cases digest))

let find store digest =
  locked store (fun () ->
      Option.map
        (fun st -> (st.ruleset, st.structure))
        (Hashtbl.find_opt store.cases digest))

let size store = locked store (fun () -> Hashtbl.length store.cases)

let remove store digest =
  locked store (fun () ->
      Hashtbl.remove store.cases digest;
      update_gauge store)

let cases store =
  locked store (fun () ->
      Hashtbl.fold
        (fun digest st acc -> (digest, st.ruleset, st.structure) :: acc)
        store.cases []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b))

(* The nodes whose memo keys a payload edit of [i] can change: [i]
   itself, its SupportedBy parents (their equivocation lints read
   [i]'s content words), and its SupportedBy children (a solution
   child's weak-evidence rule reads [i]'s universal flag). *)
let key_cone st i =
  let ir = st.ir in
  let n = ir.Caseir.n_nodes in
  let acc = ref (ISet.singleton i) in
  for k = ir.Caseir.sup_in_off.(i) to ir.Caseir.sup_in_off.(i + 1) - 1 do
    let pi = ir.Caseir.sup_in.(k) in
    if pi < n then acc := ISet.add pi !acc
  done;
  for k = ir.Caseir.sup_out_off.(i) to ir.Caseir.sup_out_off.(i + 1) - 1 do
    let j = ir.Caseir.sup_out.(k) in
    if j < n then acc := ISet.add j !acc
  done;
  !acc

(* Validate and apply the edit batch to the (persistent) structure,
   classifying it: [`Payload edits] when every edit replaces a node's
   text in place — the incremental fast path — and [`Shape] when any
   edit touches the graph.  Nothing is mutated here, so a bad edit
   leaves the store untouched. *)
let apply_edits structure edits =
  let rec go structure payload = function
    | [] -> Ok (structure, Option.map List.rev payload)
    | Set_text (id, text) :: rest -> (
        match Structure.find id structure with
        | None ->
            Error
              (Bad_edit
                 (Printf.sprintf "set-text: no node %s" (Id.to_string id)))
        | Some n ->
            let n' =
              Node.make ~id ~node_type:n.Node.node_type ~status:n.Node.status
                ?formal:n.Node.formal ~annotations:n.Node.annotations
                ?evidence:n.Node.evidence text
            in
            go
              (Structure.add_node n' structure)
              (Option.map (fun ps -> (id, n') :: ps) payload)
              rest)
    | Add_node n :: rest -> go (Structure.add_node n structure) None rest
    | Remove_node id :: rest ->
        if not (Structure.mem id structure) then
          Error
            (Bad_edit
               (Printf.sprintf "remove-node: no node %s" (Id.to_string id)))
        else go (Structure.remove_node id structure) None rest
    | Link (kind, src, dst) :: rest ->
        go (Structure.connect kind ~src ~dst structure) None rest
    | Unlink (kind, src, dst) :: rest ->
        go (Structure.disconnect kind ~src ~dst structure) None rest
  in
  go structure (Some []) edits

let patch store ~digest edits =
  locked store (fun () ->
      match Hashtbl.find_opt store.cases digest with
      | None -> Error (Unknown_digest digest)
      | Some st -> (
          match apply_edits st.structure edits with
          | Error _ as e -> e
          | Ok (structure, Some payload_edits) ->
              (* Payload-only fast path: swap each edited node's term
                 in the case sum (the old payload is read before
                 [set_node] overwrites it), patch the IR arrays in
                 place, then re-key and re-verdict the edit's
                 neighbourhood. *)
              let seeds = ref [] in
              List.iter
                (fun (id, n') ->
                  match Caseir.entity_index st.ir id with
                  | None -> ()
                  | Some i ->
                      sum_sub st.sum (local_digest st.ir.Caseir.nodes.(i));
                      sum_add st.sum (local_digest n');
                      st.ir <- Caseir.set_node st.ir structure i n';
                      seeds := i :: !seeds)
                payload_edits;
              st.structure <- structure;
              st.digest <- render_digest st.sum;
              let seeds = !seeds in
              let keys =
                List.fold_left
                  (fun acc i -> ISet.union acc (key_cone st i))
                  ISet.empty seeds
              in
              ISet.iter
                (fun i ->
                  st.keys.(i) <- node_key st.ir i;
                  set_node_verdict st i (node_verdict store st i))
                keys;
              st.cached <- None;
              Hashtbl.remove store.cases digest;
              Hashtbl.replace store.cases st.digest st;
              Ok st.digest
          | Ok (structure, None) ->
              (* A shape edit: rebuild through the verdict memo — O(n) hashing, but only the nodes whose
                 inputs actually changed are re-checked. *)
              rebuild store st structure;
              st.conf <- None;
              Hashtbl.remove store.cases digest;
              Hashtbl.replace store.cases st.digest st;
              update_gauge store;
              Ok st.digest))

(* Root confidence straight off the interned arrays: the IR already
   holds the node table and the SupportedBy CSR the kernel walks. *)
let root_confidence st =
  let ir = st.ir in
  match ir.Caseir.roots with
  | [] -> 0.0
  | root :: _ ->
      Confidence.score_root ~trust:default_trust
        {
          Confidence.nodes = ir.Caseir.nodes;
          n_entities = ir.Caseir.n_entities;
          sup_off = ir.Caseir.sup_out_off;
          sup = ir.Caseir.sup_out;
          evidence = (fun id -> Structure.find_evidence id st.structure);
        }
        root

let verdict store ~digest =
  locked store (fun () ->
      match Hashtbl.find_opt store.cases digest with
      | None -> Error (Unknown_digest digest)
      | Some st -> (
          match st.cached with
          | Some (result, confidence) ->
              Counter.incr c_reused;
              Ok { vdigest = digest; result; confidence; from_memo = true }
          | None ->
              let node_wf =
                List.concat_map
                  (fun i -> st.wf_node.(i))
                  (ISet.elements st.wf_idx)
              in
              let node_inf =
                List.concat_map
                  (fun i -> st.inf_node.(i))
                  (ISet.elements st.inf_idx)
              in
              let wf = st.link_wf @ st.shape_wf @ node_wf in
              let informal = node_inf @ Fused.walk_findings st.ir in
              let result = Fused.assemble ~wf ~informal in
              let confidence =
                match st.conf with
                | Some c -> c
                | None ->
                    let c = root_confidence st in
                    st.conf <- Some c;
                    c
              in
              st.cached <- Some (result, confidence);
              Ok { vdigest = digest; result; confidence; from_memo = false }))
