(* The Argus serving benchmark.

   One process drives a separate [argus serve] over TCP through the
   public [Argus_svc.Client], closed loop: each connection (one per
   core, one domain each) waits for its answer before sending the next
   request, as an editor waiting for its verdict or a CI job waiting
   for its check does.  Every answer is checked against an in-process
   oracle; a wrong answer counts as a failed operation.

   [--trace 1] adds a per-layer breakdown: the same request sequence is
   replayed in-process with spans recorded here, around the public
   entry points of each layer, and the server-held counters come from
   its [stats] op at the end of the live run.

   Usage (run.py builds the two executables first):
     servebench.exe --argus ARGUS.EXE --work DIR --workload NAME
       --seed N --seconds S --trace 0|1 *)

module Json = Argus_core.Json
module Prng = Argus_core.Prng
module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Dsl = Argus_dsl.Dsl
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Store = Argus_store.Store
module Wal = Argus_store.Wal
module Snapshot = Argus_store.Snapshot
module Recover = Argus_store.Recover
module Durable = Argus_store.Durable
module Protocol = Argus_svc.Protocol
module Handlers = Argus_svc.Handlers
module Client = Argus_svc.Client
module Endpoint = Argus_svc.Endpoint
module Server = Argus_svc.Server
module Metrics = Argus_obs.Metrics

let now = Unix.gettimeofday
let fail fmt = Printf.ksprintf (fun m -> raise (Failure m)) fmt

(* --- small numeric helpers --- *)

let percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let median xs = percentile xs 0.5
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

let alloc_words () = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words
    -. (Gc.quick_stat ()).Gc.promoted_words

(* [timed f] is [(f (), seconds, words allocated)]. *)
let timed f =
  let w0 = alloc_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, t1 -. t0, alloc_words () -. w0)

(* --- files --- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path

let copy_dir src dst =
  ignore (fresh_dir dst);
  Array.iter
    (fun e ->
      let ic = open_in_bin (Filename.concat src e) in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Filename.concat dst e) in
      output_string oc data;
      close_out oc)
    (Sys.readdir src)

let dir_bytes dir =
  Array.fold_left
    (fun acc e -> acc + (Unix.stat (Filename.concat dir e)).Unix.st_size)
    0 (Sys.readdir dir)

(* --- the server process --- *)

type server = { pid : int; mutable port : int; mutable alive : bool }

let live_servers : server list ref = ref []

let kill9 s =
  if s.alive then begin
    s.alive <- false;
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid)
  end

let () = at_exit (fun () -> List.iter kill9 !live_servers)

let rss_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* The server's CPU seconds so far (user + system), from
   /proc/PID/stat; Linux reports them in USER_HZ = 100 ticks. *)
let cpu_times s =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" s.pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let i = String.rindex line ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub line i (String.length line - i))) in
  (float (int_of_string f.(11)) /. 100., float (int_of_string f.(12)) /. 100.)

(* Server CPU spent between [cpu0] and [cpu1], per completed operation: the total
   is gated, the user/system split is reported. *)
let cpu_per_op ~cpu0 ~cpu1 ~ops =
  let u, k = cpu1 in
  let per x = x *. 1e3 /. float (max 1 ops) in
  let u = per (u -. fst cpu0) and k = per (k -. snd cpu0) in
  (("server_cpu_ms_per_op", u +. k, "ms"), [ ("server_user_ms_per_op", u, "ms"); ("server_sys_ms_per_op", k, "ms") ])

let client_for port =
  Client.create ~pool_size:1 ~overall_deadline_ms:60_000.
    [ Endpoint.Tcp ("127.0.0.1", port) ]

let call_json c line =
  match Client.call c line with
  | Ok r -> (
      match r.Protocol.outcome with
      | Ok (_, payload) -> Json.Obj payload
      | Error (code, msg) -> fail "server refused %s: %s" code msg)
  | Error e -> fail "call failed: %s" (Client.error_message e)

(* Spawn [argus serve] and wait for its first answer; returns the
   server and the seconds from spawn to that answer. *)
let spawn ~argus ~work extra =
  let pf = Filename.concat work "port" in
  (try Sys.remove pf with Sys_error _ -> ());
  let logf =
    Unix.openfile (Filename.concat work "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process argus
      (Array.of_list
         ([ argus; "serve"; "--listen"; "127.0.0.1:0"; "--port-file"; pf ] @ extra))
      null null logf
  in
  Unix.close null;
  Unix.close logf;
  let s = { pid; port = 0; alive = true } in
  live_servers := s :: !live_servers;
  let rec wait_port () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        s.alive <- false;
        fail "argus serve exited during start-up (see %s/server.log)" work);
    if now () -. t0 > 150. then fail "argus serve did not start";
    match open_in pf with
    | ic -> (
        let l = try Some (input_line ic) with End_of_file -> None in
        close_in ic;
        match Option.bind l (fun l -> int_of_string_opt (String.trim l)) with
        | Some p -> p
        | None ->
            Unix.sleepf 0.0002;
            wait_port ())
    | exception Sys_error _ ->
        Unix.sleepf 0.0002;
        wait_port ()
  in
  s.port <- wait_port ();
  let c = client_for s.port in
  ignore (call_json c {|{"id":"h","op":"health"}|});
  let dt = now () -. t0 in
  Client.close c;
  (s, dt)

(* Graceful drain: the server flushes its WAL and exits. *)
let stop s =
  if s.alive then begin
    Unix.kill s.pid Sys.sigterm;
    ignore (Unix.waitpid [] s.pid);
    s.alive <- false
  end

(* Spawn [n] times, keeping the last server: the set-up time is the
   median of the [n] spawn-to-first-answer times.  [before] resets
   whatever state a spawn must start from. *)
let spawn_setup ~argus ~work ~n ~before extra =
  let rec go k acc =
    before ();
    let s, dt = spawn ~argus ~work extra in
    if k = n then (s, median (dt :: acc))
    else begin
      kill9 s;
      go (k + 1) (dt :: acc)
    end
  in
  go 1 []

let stats port =
  let c = client_for port in
  let j = call_json c {|{"id":"st","op":"stats"}|} in
  Client.close c;
  j

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun v -> path v rest)

let num j p = match path j p with Some (Json.Num f) -> f | _ -> 0.
let counter j name = num j [ "counters"; name ]

(* --- the closed loop --- *)

type sample = { op : string; ms : float; ok : bool }

(* The latencies of [op]; a failed or wrong answer misses every
   latency limit. *)
let ms_of xs op =
  List.filter_map
    (fun s -> if s.op = op then Some (if s.ok then s.ms else infinity) else None)
    xs

(* Run [conns] connections for [seconds]; connection [c] calls
   [step c client k] for its k-th iteration, which returns the
   samples it produced.  Returns per-connection sample lists and the
   measured wall time. *)
let closed_loop ~port ~conns ~seconds step =
  let t_end = now () +. seconds in
  let t0 = now () in
  let run c () =
    let client = client_for port in
    let rec go k acc =
      if now () >= t_end then List.rev acc
      else go (k + 1) (List.rev_append (step c client k) acc)
    in
    let r = go 0 [] in
    Client.close client;
    r
  in
  let ds = List.init conns (fun c -> Domain.spawn (run c)) in
  let res = List.map Domain.join ds in
  (res, now () -. t0)

(* One timed call; [check] validates the response, returning false on
   a wrong answer. *)
let timed_call client pop line check =
  let op = Protocol.op_to_string pop in
  let t0 = now () in
  let r = Client.call ~op:pop client line in
  let ms = (now () -. t0) *. 1000. in
  let ok, resp =
    match r with
    | Ok resp -> (
        match resp.Protocol.outcome with
        | Ok _ -> (check resp, Some resp)
        | Error _ -> (false, Some resp))
    | Error _ -> (false, None)
  in
  ({ op; ms; ok }, resp)

let line_of_request r = Json.to_string (Protocol.request_to_json r)

(* The comparable form of a response: trace ids are server-minted and
   [from_memo] reports the answering store's cache state, so both are
   dropped; everything else is compared byte for byte. *)
let canonical (r : Protocol.response) =
  let r = Protocol.with_trace_id None r in
  let r =
    match r.Protocol.outcome with
    | Ok (code, payload) ->
        {
          r with
          Protocol.outcome =
            Ok (code, List.filter (fun (k, _) -> k <> "from_memo") payload);
        }
    | Error _ -> r
  in
  Protocol.response_to_line r

let payload_str (r : Protocol.response) key =
  match r.Protocol.outcome with
  | Ok (_, p) -> (
      match List.assoc_opt key p with Some (Json.Str s) -> Some s | _ -> None)
  | Error _ -> None

let payload_bool (r : Protocol.response) key =
  match r.Protocol.outcome with
  | Ok (_, p) -> List.assoc_opt key p = Some (Json.Bool true)
  | Error _ -> false

(* The verdict answer a stateless check of the same structure implies:
   exit code, digest and report, as [Handlers.with_store] renders them,
   plus the confidence the store reported (the oracle does not
   recompute confidence). *)
let expected_verdict ~id ~digest ~confidence (res : Fused.result) =
  let ds = res.Fused.wf @ res.Fused.informal in
  canonical
    (Protocol.ok ~id
       ~exit_code:(if Diagnostic.has_errors ds then 1 else 0)
       [
         ("digest", Json.Str digest);
         ("report", Diagnostic.report_to_json ds);
         ("confidence", Json.Num confidence);
       ])

(* The verdict answer an in-process store gives for [digest]. *)
let store_verdict st ~id digest =
  match Store.verdict st ~digest with
  | Ok v -> expected_verdict ~id ~digest ~confidence:v.Store.confidence v.Store.result
  | Error e -> fail "in-process verdict: %s" (Store.error_message e)

(* A deliberately wrong answer for the oracle self-tests: the last
   digit in the line (a report count, the confidence or the digest)
   changed. *)
let alter s =
  let b = Bytes.of_string s in
  let rec go i =
    if i < 0 then Bytes.to_string b ^ "0"
    else
      match Bytes.get b i with
      | '0' .. '9' as ch ->
          Bytes.set b i (if ch = '9' then '0' else Char.chr (Char.code ch + 1));
          Bytes.to_string b
      | _ -> go (i - 1)
  in
  go (String.length s - 1)

let payload_num (r : Protocol.response) key =
  match r.Protocol.outcome with
  | Ok (_, p) -> (
      match List.assoc_opt key p with Some (Json.Num f) -> f | _ -> nan)
  | Error _ -> nan

(* --- per-layer accumulation (traced runs) --- *)

type acc = { mutable n : int; mutable secs : float; mutable words : float; mutable units : float }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 32

let record name ?(units = 1.) secs words =
  let a =
    match Hashtbl.find_opt accs name with
    | Some a -> a
    | None ->
        let a = { n = 0; secs = 0.; words = 0.; units = 0. } in
        Hashtbl.replace accs name a;
        a
  in
  a.n <- a.n + 1;
  a.secs <- a.secs +. secs;
  a.words <- a.words +. words;
  a.units <- a.units +. units

(* A span recorded in the benchmark's own code around one call into a
   layer: time and allocation, accumulated under [name]; [units]
   normalises (nodes, bytes). *)
let span name ?units f =
  let r, s, w = timed f in
  record name ?units s w;
  r

let get name = Hashtbl.find_opt accs name

(* Mean seconds per call, per unit, and words per unit. *)
let per_call name = match get name with Some a when a.n > 0 -> a.secs /. float a.n | _ -> 0.
let per_unit name = match get name with Some a when a.units > 0. -> a.secs /. a.units | _ -> 0.
let words_per_unit name = match get name with Some a when a.units > 0. -> a.words /. a.units | _ -> 0.
let total name = match get name with Some a -> a.secs | None -> 0.

(* --- workloads --- *)

type cfg = {
  argus : string;
  work : string;
  seed : int;
  seconds : float;
  trace : bool;
  conns : int;
}

(* What one workload run produces.  [e2e] are the gated end-to-end
   metrics, [named] the workload-specific ones, [layers] the per-layer
   breakdown (traced runs only), [facts] the input facts. *)
type outcome = {
  attempted : int;
  failed : int;
  e2e : (string * float * string) list;
  named : (string * float * string) list;
  layers : (string * float * string) list;
  facts : (string * Json.t) list;
}

let line_limit = (Server.default_config ~socket_path:"").Server.max_line_bytes

(* Dsl.parse refuses sources over 8 MiB (Dsl.max_input_bytes, not
   exported). *)
let dsl_limit = 8 * 1024 * 1024

let assert_sizes ~line ~source =
  if String.length line >= line_limit then
    fail "request line of %d bytes exceeds the server's %d-byte limit"
      (String.length line) line_limit;
  if String.length source >= dsl_limit then
    fail "source of %d bytes exceeds the DSL's input limit" (String.length source)

let count_ok xs = List.length (List.filter (fun s -> s.ok) xs)

(* The distribution facts of a list of sizes. *)
let dist name xs =
  let xs = List.map float xs in
  ( name,
    Json.Obj
      [
        ("n", Json.int (List.length xs));
        ("min", Json.Num (percentile xs 0.));
        ("p50", Json.Num (median xs));
        ("p90", Json.Num (percentile xs 0.9));
        ("max", Json.Num (percentile xs 1.));
      ] )

(* The share of node payloads whose text appears in more than one
   case: the repetition the store's node arena can exploit. *)
let repeated_share (cases : Gen.case list) =
  let seen = Hashtbl.create 4096 in
  List.iteri
    (fun i (c : Gen.case) ->
      List.iter
        (fun t ->
          match Hashtbl.find_opt seen t with
          | None -> Hashtbl.replace seen t (i, false)
          | Some (j, _) when j <> i -> Hashtbl.replace seen t (j, true)
          | Some _ -> ())
        c.Gen.texts)
    cases;
  let rep, tot =
    List.fold_left
      (fun (r, t) (c : Gen.case) ->
        List.fold_left
          (fun (r, t) x -> ((if snd (Hashtbl.find seen x) then r + 1 else r), t + 1))
          (r, t) c.Gen.texts)
      (0, 0) cases
  in
  ratio (float rep) (float tot)

let why name text = [ ("workload", Json.Str name); ("why", Json.Str text) ]

(* Server-side layer counters over the measured window. *)
let server_layers ~before ~after ~client_p50 ~op =
  let d name = counter after name -. counter before name in
  let p50 = num after [ "latency_ms"; op; "p50" ] in
  [
    ("server.latency_p50_ms", p50, "ms");
    ("wire.residual_p50_ms", client_p50 -. p50, "ms");
    ("server.shed", d "svc.shed", "count");
    ("server.queue_depth_max", num after [ "gauges"; "svc.queue_depth"; "max" ], "count");
  ]

let client_layers () =
  let c name =
    float (Metrics.Counter.value (Metrics.Counter.make ("svc.client." ^ name)))
  in
  [
    ("client.retries", c "retries", "count");
    ("client.failover", c "failover", "count");
    ("client.stale_pooled", c "stale_pooled", "count");
  ]

(* The traced replay's protocol and handler spans, and the stage
   reconciliation: handler time not covered by its timed stages. *)
let protocol_layers () =
  [
    ("protocol.decode_us", per_call "protocol.decode" *. 1e6, "us");
    ("protocol.decode_ns_per_byte", per_unit "protocol.decode" *. 1e9, "ns/byte");
    ("protocol.encode_us", per_call "protocol.encode" *. 1e6, "us");
    ("handler.check_us", per_call "handler.check" *. 1e6, "us");
    ("handler.put_ms", per_call "handler.put" *. 1e3, "ms");
    ("handler.patch_us", per_call "handler.patch" *. 1e6, "us");
    ("handler.verdict_us", per_call "handler.verdict" *. 1e6, "us");
  ]

(* Per-call means, so stages timed over a different sample of the same
   requests (edit-session's store stages come from the oracle replay of
   every edit) still compare with the handler spans. *)
let reconcile ~handler ~stages =
  let h = sum (List.map per_call handler) in
  let s = sum (List.map per_call stages) in
  ("handler.unattributed_share", ratio (h -. s) h, "share")

(* Replay [lines] in-process on two handlers in lockstep: a plain one,
   and a traced one with spans around decode, handler and encode.
   [fresh ()] gives each its own state, starting from the same point;
   lockstep keeps warm-up and collector state alike for both.
   [stages req] then times the inner stages of the request on the
   same input.  Returns the trace overhead share. *)
let replay ~fresh ~kind ~stages lines =
  let plain = fresh () and traced = fresh () in
  let t_plain = ref 0. and t_traced = ref 0. in
  List.iter
    (fun line ->
      let t0 = now () in
      (match Protocol.request_of_line line with
      | Ok req -> ignore (Protocol.response_to_line (plain req ~budget:None))
      | Error e -> fail "replay decode: %s" e);
      let t1 = now () in
      let req =
        match
          span "protocol.decode"
            ~units:(float (String.length line))
            (fun () -> Protocol.request_of_line line)
        with
        | Ok req -> req
        | Error e -> fail "replay decode: %s" e
      in
      let resp = span ("handler." ^ kind req) (fun () -> traced req ~budget:None) in
      ignore (span "protocol.encode" (fun () -> Protocol.response_to_line resp));
      let t2 = now () in
      t_plain := !t_plain +. (t1 -. t0);
      t_traced := !t_traced +. (t2 -. t1);
      stages req)
    lines;
  ratio (!t_traced -. !t_plain) !t_plain

let op_kind (req : Protocol.request) = Protocol.op_to_string req.Protocol.op

(* Inner stages of a request that carries a source: parse, derive,
   intern and the fused check, on the same input. *)
let source_stages (req : Protocol.request) =
  let parsed, secs, words =
    timed (fun () ->
        Dsl.parse_collection ~filename:req.Protocol.filename req.Protocol.source)
  in
  match parsed with
  | Ok [ case ] ->
      let s = case.Dsl.structure in
      let n = float (Structure.size s) in
      record "dsl.parse" ~units:n secs words;
      span "caseir.derive" ~units:n (fun () ->
          List.iter (fun nd -> ignore (Caseir.derive nd)) (Structure.nodes s));
      let ir = span "caseir.intern" ~units:n (fun () -> Caseir.intern s) in
      ignore (span "fused.check" ~units:n (fun () -> Fused.check ~lints:true ir));
      (s, n)
  | _ -> fail "replay: source did not parse to one case"

let recover_layers ~dir =
  let wal = Recover.wal_path dir in
  let image, read_s, _ = timed (fun () -> Wal.read_file wal) in
  let snap = Snapshot.latest dir in
  let snap_read_s =
    match snap with
    | Some (_, p) ->
        let _, s, _ =
          timed (fun () ->
              let ic = open_in_bin p in
              ignore (really_input_string ic (in_channel_length ic));
              close_in ic)
        in
        s
    | None -> 0.
  in
  let _, decode_s, _ =
    timed (fun () ->
        (match image with
        | Ok img -> ignore (Wal.parse img)
        | Error e -> fail "recover read: %s" e);
        match snap with Some (_, p) -> ignore (Snapshot.read p) | None -> ())
  in
  let r, load_s, _ = timed (fun () -> Recover.load ~dir ()) in
  (match r with Ok _ -> () | Error e -> fail "in-process recovery refused: %s" e);
  let read = read_s +. snap_read_s in
  [
    ("recover.read_ms", read *. 1e3, "ms");
    ("recover.decode_ms", decode_s *. 1e3, "ms");
    ("recover.replay_ms", (load_s -. read -. decode_s) *. 1e3, "ms");
  ]

(* The per-layer names every traced run prints; a layer a workload
   does not run reads 0. *)
let layer_names =
  [
    ("client.retries", "count"); ("client.failover", "count");
    ("client.stale_pooled", "count"); ("server.latency_p50_ms", "ms");
    ("wire.residual_p50_ms", "ms"); ("server.shed", "count");
    ("server.queue_depth_max", "count"); ("protocol.decode_us", "us");
    ("protocol.decode_ns_per_byte", "ns/byte"); ("protocol.encode_us", "us");
    ("handler.check_us", "us"); ("handler.put_ms", "ms");
    ("handler.patch_us", "us"); ("handler.verdict_us", "us");
    ("handler.unattributed_share", "share"); ("dsl.parse_us_per_node", "us");
    ("dsl.parse_share_of_put", "share"); ("dsl.alloc_words_per_node", "words");
    ("caseir.derive_us_per_node", "us"); ("caseir.intern_us_per_node", "us");
    ("caseir.alloc_words_per_node", "words"); ("fused.check_us_per_node", "us");
    ("store.digest_us_per_node", "us"); ("store.put_us_per_node", "us");
    ("store.patch_us", "us"); ("store.verdict_us", "us");
    ("store.dirty_cone_per_patch", "nodes"); ("store.verdict_from_memo_share", "share");
    ("store.node_hit_rate", "share"); ("wal.append_us", "us");
    ("wal.fsyncs_per_op", "count"); ("wal.bytes_per_user_byte", "ratio");
    ("snapshot.count", "count"); ("snapshot.write_ms", "ms");
    ("snapshot.bytes", "bytes"); ("recover.read_ms", "ms");
    ("recover.decode_ms", "ms"); ("recover.replay_ms", "ms");
    ("trace.overhead_share", "share");
  ]

let source_layers () =
  [
    ("dsl.parse_us_per_node", per_unit "dsl.parse" *. 1e6, "us");
    ("dsl.alloc_words_per_node", words_per_unit "dsl.parse", "words");
    ("caseir.derive_us_per_node", per_unit "caseir.derive" *. 1e6, "us");
    ("caseir.intern_us_per_node", per_unit "caseir.intern" *. 1e6, "us");
    ("caseir.alloc_words_per_node", words_per_unit "caseir.intern", "words");
    ("fused.check_us_per_node", per_unit "fused.check" *. 1e6, "us");
  ]

(* A fresh in-process durable store for a replay, under the server's
   sync policy, holding a copy of the data dir [from] when given. *)
let replica =
  let n = ref 0 in
  fun cfg from () ->
    incr n;
    let dir = Filename.concat cfg.work (Printf.sprintf "replica%d" !n) in
    (match from with Some src -> copy_dir src dir | None -> ignore (fresh_dir dir));
    match Durable.create ~dir ~sync:Wal.Always () with
    | Ok (d, _) -> Handlers.with_store d
    | Error e -> fail "replica: %s" e

(* A scratch WAL under the server's sync policy: [wal.append] spans
   and the bytes it writes per byte of user input. *)
let scratch_wal dir =
  let w = Wal.openw ~sync:Wal.Always (Recover.wal_path (fresh_dir dir)) in
  let seq = ref 0 and bytes = ref 0 and user = ref 0 in
  let append ~user_bytes op digest =
    incr seq;
    let r = { Wal.seq = !seq; op; digest } in
    bytes := !bytes + String.length (Wal.encode r);
    user := !user + user_bytes;
    span "wal.append" (fun () -> Wal.append w r)
  in
  let close () =
    Wal.close w;
    ratio (float !bytes) (float !user)
  in
  (append, close)

(* small-check: stateless checks of small cases from a fixed pool, so
   every expected answer is computed before the clock starts. *)
let small_check cfg =
  let base = Prng.create cfg.seed in
  let pool =
    Array.init 64 (fun i ->
        let r = Prng.stream base i in
        (* Sizes spread evenly over 10-40 nodes in every run; the seed
           decides the content. *)
        let c =
          Gen.case ~title:(Printf.sprintf "small %d" i) r ~nodes:(10 + (i * 31 / 64))
        in
        let source = Lazy.force c.Gen.source in
        let req =
          Protocol.request ~id:(Printf.sprintf "s%d" i) ~source
            ~filename:"small.arg" ~lints:true Protocol.Check
        in
        let line = line_of_request req in
        assert_sizes ~line ~source;
        (c, line, canonical (Handlers.handle req ~budget:None)))
  in
  let server, setup_s =
    spawn_setup ~argus:cfg.argus ~work:cfg.work ~n:15 ~before:ignore []
  in
  let before = stats server.port in
  let cpu0 = cpu_times server in
  let conn_rng = Array.init cfg.conns (fun c -> Prng.stream base (1000 + c)) in
  let sent = Array.make cfg.conns [] and seen = Atomic.make None in
  let res, wall =
    closed_loop ~port:server.port ~conns:cfg.conns ~seconds:cfg.seconds
      (fun c client k ->
        let i = Prng.int (Prng.stream conn_rng.(c) k) (Array.length pool) in
        let _, line, expect = pool.(i) in
        if k < 4000 then sent.(c) <- i :: sent.(c);
        let s, r =
          timed_call client Protocol.Check line (fun r ->
              canonical r = expect)
        in
        if s.ok then Atomic.set seen (Option.map (fun r -> (r, expect)) r);
        [ s ])
  in
  let cpu_end = cpu_times server in
  let after = stats server.port in
  let rss = rss_mb server in
  stop server;
  let all = List.concat res in
  let checks = ms_of all "check" in
  let p50 = median checks in
  (* Self-test of the oracle: an answer altered by one byte must not
     compare equal. *)
  (match Atomic.get seen with
  | Some (r, expect) -> (
      match Protocol.response_of_line (alter (canonical r)) with
      | Ok altered when canonical altered <> expect -> ()
      | _ -> fail "oracle self-test: altered answer passed")
  | None -> ());
  let layers =
    if not cfg.trace then []
    else begin
      let lines =
        List.concat_map
          (fun c -> List.rev_map (fun i -> let _, l, _ = pool.(i) in l) sent.(c))
          (List.init cfg.conns Fun.id)
      in
      let lines = List.filteri (fun i _ -> i < 2000) lines in
      let overhead =
        replay ~fresh:(fun () -> Handlers.handle) ~kind:op_kind
          ~stages:(fun req -> ignore (source_stages req))
          lines
      in
      client_layers ()
      @ server_layers ~before ~after ~client_p50:p50 ~op:"check"
      @ protocol_layers () @ source_layers ()
      @ [
          reconcile ~handler:[ "handler.check" ]
            ~stages:[ "dsl.parse"; "caseir.intern"; "fused.check" ];
          ("trace.overhead_share", overhead, "share");
        ]
    end
  in
  {
    attempted = List.length all;
    failed = List.length all - count_ok all;
    e2e =
      [
        ("setup_s", setup_s, "s");
        fst (cpu_per_op ~cpu0 ~cpu1:cpu_end ~ops:(count_ok all));
      ];
    named =
      snd (cpu_per_op ~cpu0 ~cpu1:cpu_end ~ops:(count_ok all))
      @ [
        ("ops_per_s", float (count_ok all) /. wall, "1/s");
        ("check_p50_ms", p50, "ms");
        ("check_p90_ms", percentile checks 0.9, "ms");
        ("check_p99_ms", percentile checks 0.99, "ms");
        ("server_rss_mb", rss, "MB");
        ("check_over_4ms_share",
          ratio (float (List.length (List.filter (fun x -> x > 4.) checks)))
            (float (List.length checks)), "share");
      ];
    layers;
    facts =
      why "small-check"
        "Per-request overhead dominates: readiness loop, framing, JSON, the \
         acceptor-to-worker handoff and the client pool; DSL parse, IR and \
         checking cost tens of us; the store and WAL never run."
      @ [
          dist "case_nodes"
            (Array.to_list (Array.map (fun ((c : Gen.case), _, _) -> c.Gen.n_nodes) pool));
          dist "request_bytes"
            (Array.to_list (Array.map (fun (_, l, _) -> String.length l) pool));
          ("repeated_payload_share",
            Json.Num (repeated_share (Array.to_list (Array.map (fun (c, _, _) -> c) pool))));
        ];
  }

(* After a final kill -9 and restart on the same data dir: every acked
   digest in [last] must still be served, with the verdict acked last
   for it.  The same check must flag [ahead], a digest past anything
   acked: the self-test that a recovered store behind its last ack
   cannot pass.  Returns the restart time and the lost answers. *)
let restart_check cfg server extra ~last ~ahead =
  kill9 server;
  let s, recover_s = spawn ~argus:cfg.argus ~work:cfg.work extra in
  let c = client_for s.port in
  let served (digest, id, expect) =
    let line = line_of_request (Protocol.request ~id ~digest Protocol.Verdict) in
    match Client.call ~op:Protocol.Verdict c line with
    | Ok r -> canonical r = expect
    | Error _ -> false
  in
  let lost = List.length (List.filter (fun x -> not (served x)) last) in
  let ahead_passed = served ahead in
  Client.close c;
  stop s;
  if ahead_passed then
    fail "oracle self-test: a digest past the last ack was served";
  (recover_s, lost)

type put_rec = {
  k : int;
  pcase : Gen.case;
  pline : string;
  pdigest : string;
  vline : string;  (** The verdict request line. *)
  vcanon : string;  (** The canonical verdict answer. *)
  vconf : float;
  vmemo : bool;
}

(* ingest: each connection puts a freshly generated case, then fetches
   its verdict, against a durable store. *)
let ingest cfg =
  let base = Prng.create cfg.seed in
  let size_of = Gen.stratified_size ~lo:200 ~hi:5000 in
  let case_rng = Prng.stream base 2 in
  let data = Filename.concat cfg.work "ingest-data" in
  let extra = [ "--store"; "--data-dir"; data; "--sync"; "always" ] in
  let server, setup_s =
    spawn_setup ~argus:cfg.argus ~work:cfg.work ~n:15
      ~before:(fun () -> ignore (fresh_dir data))
      extra
  in
  let before = stats server.port in
  let cpu0 = cpu_times server in
  let next = Atomic.make 0 in
  let recs = Array.make cfg.conns [] in
  let res, wall =
    closed_loop ~port:server.port ~conns:cfg.conns ~seconds:cfg.seconds
      (fun c client _ ->
        let k = Atomic.fetch_and_add next 1 in
        let case =
          Gen.case ~title:(Printf.sprintf "ingest %d" k) (Prng.stream case_rng k)
            ~nodes:(size_of k)
        in
        let source = Lazy.force case.Gen.source in
        let line =
          line_of_request
            (Protocol.request ~id:(Printf.sprintf "p%d" k) ~source
               ~filename:"case.arg" Protocol.Put)
        in
        assert_sizes ~line ~source;
        let ps, presp =
          timed_call client Protocol.Put line (fun r ->
              payload_str r "digest" <> None)
        in
        match Option.bind presp (fun r -> payload_str r "digest") with
        | Some digest when ps.ok ->
            let vline =
              line_of_request
                (Protocol.request ~id:(Printf.sprintf "v%d" k) ~digest Protocol.Verdict)
            in
            let vs, vresp =
              timed_call client Protocol.Verdict vline (fun r ->
                  payload_str r "digest" = Some digest)
            in
            (match vresp with
            | Some r when vs.ok ->
                recs.(c) <-
                  {
                    k; pcase = case; pline = line; pdigest = digest; vline;
                    vcanon = canonical r; vconf = payload_num r "confidence";
                    vmemo = payload_bool r "from_memo";
                  }
                  :: recs.(c)
            | _ -> ());
            [ ps; vs ]
        | _ -> [ ps ])
  in
  let cpu_end = cpu_times server in
  let after = stats server.port in
  let rss = rss_mb server in
  let all = List.concat res in
  let recs =
    List.sort (fun a b -> compare a.k b.k) (List.concat (Array.to_list recs))
  in
  (* The oracle, off the clock and split over the cores: the put's
     digest is the Merkle digest of the generated structure, and the
     verdict is a from-scratch fused check of it. *)
  let oracle part =
    List.filter
      (fun r ->
        let s = r.pcase.Gen.structure in
        Store.digest_of s <> r.pdigest
        || expected_verdict ~id:(Printf.sprintf "v%d" r.k) ~digest:r.pdigest
             ~confidence:r.vconf
             (Fused.check ~lints:true (Caseir.intern s))
           <> r.vcanon)
      part
    |> List.length
  in
  let wrong =
    let halves = List.partition (fun r -> r.k mod 2 = 0) recs in
    let d = Domain.spawn (fun () -> oracle (fst halves)) in
    let w = oracle (snd halves) in
    w + Domain.join d
  in
  (* Oracle self-test: the same comparison must flag an altered
     answer. *)
  (match recs with
  | r :: _ ->
      if oracle [ { r with vcanon = alter r.vcanon } ] = 0 then
        fail "oracle self-test: altered verdict passed"
  | [] -> ());
  let last = List.map (fun r -> (r.pdigest, Printf.sprintf "v%d" r.k, r.vcanon)) recs in
  let recover_s, lost =
    (* A case that was never sent, with the verdict an in-process
       store gives it: the server must not hold it. *)
    let k = Atomic.get next in
    let unsent = Gen.case (Prng.stream case_rng k) ~nodes:(size_of k) in
    let st = Store.create () in
    let d = Store.put st unsent.Gen.structure in
    restart_check cfg server extra ~last ~ahead:(d, "v-ahead", store_verdict st ~id:"v-ahead" d)
  in
  let puts = ms_of all "put" and verdicts = ms_of all "verdict" in
  let nodes_put = List.fold_left (fun a r -> a + r.pcase.Gen.n_nodes) 0 recs in
  let ok = count_ok all - (2 * wrong) in
  let p50 = median puts in
  let layers =
    if not cfg.trace then []
    else begin
      (* Replay a prefix of the run's puts and verdicts in-process. *)
      let rec take acc n = function
        | r :: rest when n < 30_000 -> take (r :: acc) (n + r.pcase.Gen.n_nodes) rest
        | _ -> List.rev acc
      in
      let sample = take [] 0 recs in
      let lines = List.concat_map (fun r -> [ r.pline; r.vline ]) sample in
      let shadow = Store.create () in
      let append, close_wal = scratch_wal (Filename.concat cfg.work "scratch-wal") in
      let stages (req : Protocol.request) =
        match req.Protocol.op with
        | Protocol.Put ->
            let s, n = source_stages req in
            ignore (span "store.digest" ~units:n (fun () -> Store.digest_of s));
            let d = span "store.put" ~units:n (fun () -> Store.put shadow s) in
            append ~user_bytes:(String.length req.Protocol.source)
              (Wal.Put (Wellformed.Standard, s)) d
        | _ -> (
            match req.Protocol.digest with
            | Some digest ->
                ignore (span "store.verdict" (fun () -> Store.verdict shadow ~digest))
            | None -> ())
      in
      let overhead = replay ~fresh:(replica cfg None) ~kind:op_kind ~stages lines in
      let bytes_ratio = close_wal () in
      let d name = counter after name -. counter before name in
      let n_puts = float (List.length sample) in
      client_layers ()
      @ server_layers ~before ~after ~client_p50:p50 ~op:"put"
      @ protocol_layers () @ source_layers ()
      @ [
          ("dsl.parse_share_of_put", ratio (total "dsl.parse") (total "handler.put"), "share");
          ("store.digest_us_per_node", per_unit "store.digest" *. 1e6, "us");
          ("store.put_us_per_node", per_unit "store.put" *. 1e6, "us");
          ("store.verdict_us", per_call "store.verdict" *. 1e6, "us");
          ("store.verdict_from_memo_share",
            ratio (float (List.length (List.filter (fun r -> r.vmemo) recs)))
              (float (List.length recs)), "share");
          ("store.node_hit_rate", ratio (d "store.node_hits") (float nodes_put), "share");
          ("wal.append_us", per_call "wal.append" *. 1e6, "us");
          ("wal.fsyncs_per_op", ratio (d "store.wal_fsyncs") (d "store.wal_appends"), "count");
          ("wal.bytes_per_user_byte", bytes_ratio, "ratio");
          ("snapshot.count", d "store.snapshots", "count");
          reconcile ~handler:[ "handler.put"; "handler.verdict" ]
            ~stages:[ "dsl.parse"; "store.put"; "wal.append"; "store.verdict" ];
          ("trace.overhead_share", overhead, "share");
        ]
      @ recover_layers ~dir:data
      @ [ ("trace.replayed_puts", n_puts, "count") ]
    end
  in
  {
    attempted = List.length all;
    failed = List.length all - ok + lost;
    e2e =
      [
        ("setup_s", setup_s, "s");
        fst (cpu_per_op ~cpu0 ~cpu1:cpu_end ~ops:ok);
      ];
    named =
      snd (cpu_per_op ~cpu0 ~cpu1:cpu_end ~ops:ok)
      @ [
        ("ops_per_s", float ok /. wall, "1/s");
        ("server_rss_mb", rss, "MB");
        ("nodes_per_s", float nodes_put /. wall, "1/s");
        ("put_p50_ms", p50, "ms");
        ("put_p90_ms", percentile puts 0.9, "ms");
        ("verdict_p50_ms", median verdicts, "ms");
        ("recover_s", recover_s, "s");
      ];
    layers;
    facts =
      why "ingest"
        "Bulk ingest of generated cases: DSL parse, text derivation, \
         interning, Merkle digesting, the fused check and a large WAL Put \
         record do almost all the work; transport is a small share."
      @ [
          dist "case_nodes" (List.map (fun r -> r.pcase.Gen.n_nodes) recs);
          dist "request_bytes" (List.map (fun r -> String.length r.pline) recs);
          ("repeated_payload_share", Json.Num (repeated_share (List.map (fun r -> r.pcase) recs)));
          ("nodes_put_total", Json.int nodes_put);
          ("memo_capacity", Json.int (1 lsl 18));
          ("puts_completed", Json.int (List.length recs));
        ];
  }

type edit_rec = {
  ek : int;
  edits : Store.edit list;
  eline : string;  (** The patch request line. *)
  edigest : string;  (** The acked digest. *)
  evline : string;
  ecanon : string;
  ememo : bool;
}

let session_nodes = 50_000

(* edit-session: each connection edits its own ~50k-node case, too
   large to put over the wire, recovered by the server from a data dir
   the benchmark writes through the public Wal functions. *)
let edit_session cfg =
  let base = Prng.create cfg.seed in
  let t_prep = now () in
  let cases =
    Array.init cfg.conns (fun c ->
        Gen.case ~title:(Printf.sprintf "session %d" c) (Prng.stream base (100 + c))
          ~nodes:session_nodes)
  in
  (* One mirror store per connection: the oracle replays each
     connection's edits on it. *)
  let mirrors = Array.map (fun _ -> Store.create ()) cases in
  let digests =
    Array.mapi (fun c (k : Gen.case) -> Store.put mirrors.(c) k.Gen.structure) cases
  in
  let write_dir dir ids =
    let w = Wal.openw ~sync:Wal.Always (Recover.wal_path (fresh_dir dir)) in
    List.iteri
      (fun i c ->
        Wal.append w
          {
            Wal.seq = i + 1;
            op = Wal.Put (Wellformed.Standard, cases.(c).Gen.structure);
            digest = digests.(c);
          })
      ids;
    Wal.close w
  in
  let pristine = Filename.concat cfg.work "edit-pristine" in
  write_dir pristine (List.init cfg.conns Fun.id);
  let prep_s = now () -. t_prep in
  let data = Filename.concat cfg.work "edit-data" in
  let extra = [ "--store"; "--data-dir"; data; "--sync"; "always" ] in
  let server, setup_s =
    spawn_setup ~argus:cfg.argus ~work:cfg.work ~n:3
      ~before:(fun () -> copy_dir pristine data)
      extra
  in
  let before = stats server.port in
  let cpu0 = cpu_times server in
  let conn_rng = Array.init cfg.conns (fun c -> Prng.stream base (1000 + c)) in
  let recs = Array.make cfg.conns [] in
  let cur = Array.copy digests in
  let res, wall =
    closed_loop ~port:server.port ~conns:cfg.conns ~seconds:cfg.seconds
      (fun c client k ->
        let r = Prng.stream conn_rng.(c) k in
        let leaves = cases.(c).Gen.leaves in
        let edits =
          List.init (1 + Prng.int r 3) (fun _ ->
              let id, subject = leaves.(Prng.int r (Array.length leaves)) in
              Store.Set_text (id, Gen.edit_text r subject))
        in
        let line =
          line_of_request
            (Protocol.request ~id:(Printf.sprintf "e%d_%d" c k) ~digest:cur.(c)
               ~edits Protocol.Patch)
        in
        let ps, presp =
          timed_call client Protocol.Patch line (fun r ->
              payload_str r "digest" <> None)
        in
        match Option.bind presp (fun r -> payload_str r "digest") with
        | Some digest when ps.ok ->
            cur.(c) <- digest;
            let vline =
              line_of_request
                (Protocol.request ~id:(Printf.sprintf "v%d_%d" c k) ~digest
                   Protocol.Verdict)
            in
            let vs, vresp =
              timed_call client Protocol.Verdict vline (fun r ->
                  payload_str r "digest" = Some digest)
            in
            (match vresp with
            | Some resp when vs.ok ->
                recs.(c) <-
                  {
                    ek = k; edits; eline = line; edigest = digest; evline = vline;
                    ecanon = canonical resp; ememo = payload_bool resp "from_memo";
                  }
                  :: recs.(c)
            | _ -> ());
            [ ps; vs ]
        | _ -> [ ps ])
  in
  let cpu_end = cpu_times server in
  let after = stats server.port in
  let rss = rss_mb server in
  let all = List.concat res in
  let recs = Array.map List.rev recs in
  (* The oracle, off the clock, one domain per connection: replay the
     edits on the mirror; every acked digest and verdict must match
     byte for byte, and the final state must also match a
     from-scratch fused check. *)
  let oracle c =
    let st = mirrors.(c) in
    let prev = ref digests.(c) and wrong = ref 0 and times = ref [] in
    List.iteri
      (fun i r ->
        let (p, ps, _) = timed (fun () -> Store.patch st ~digest:!prev r.edits) in
        match p with
        | Ok d when d = r.edigest -> (
            prev := d;
            let (v, vs, _) = timed (fun () -> Store.verdict st ~digest:d) in
            times := (ps, vs) :: !times;
            match v with
            | Ok v ->
                let expect =
                  expected_verdict ~id:(Printf.sprintf "v%d_%d" c r.ek) ~digest:d
                    ~confidence:v.Store.confidence v.Store.result
                in
                if i = 0 && expect = alter r.ecanon then
                  fail "oracle self-test: altered verdict passed";
                if expect <> r.ecanon then incr wrong
            | Error _ -> incr wrong)
        | _ -> incr wrong)
      recs.(c);
    let final_ok =
      match (Store.case st !prev, Store.verdict st ~digest:!prev) with
      | Some s, Ok v -> Fused.check ~lints:true (Caseir.intern s) = v.Store.result
      | _ -> false
    in
    (!wrong + (if final_ok then 0 else 1), List.rev !times)
  in
  let results =
    let ds = List.init (cfg.conns - 1) (fun i -> Domain.spawn (fun () -> oracle (i + 1))) in
    let r0 = oracle 0 in
    r0 :: List.map Domain.join ds
  in
  let wrong = List.fold_left (fun a (w, _) -> a + w) 0 results in
  let last =
    List.concat
      (List.mapi
         (fun c rs ->
           match List.rev rs with
           | r :: _ -> [ (r.edigest, Printf.sprintf "v%d_%d" c r.ek, r.ecanon) ]
           | [] -> [])
         (Array.to_list recs))
  in
  (* The digest one more (never sent) edit would give: a recovered
     store must not be at it. *)
  let ahead =
    let st = mirrors.(0) in
    let id, subject = cases.(0).Gen.leaves.(0) in
    match
      Store.patch st ~digest:cur.(0)
        [ Store.Set_text (id, Gen.edit_text (Prng.stream base 7) subject) ]
    with
    | Ok d -> (d, "v-ahead", store_verdict st ~id:"v-ahead" d)
    | Error e -> fail "ahead edit: %s" (Store.error_message e)
  in
  let recover_s, lost = restart_check cfg server extra ~last ~ahead in
  let patches = ms_of all "patch" and verdicts = ms_of all "verdict" in
  let ok = count_ok all - (2 * wrong) in
  let p50 = median patches in
  let n_patch = List.length patches in
  let layers =
    if not cfg.trace then []
    else begin
      List.iter
        (fun (_, times) ->
          List.iter
            (fun (ps, vs) ->
              record "store.patch" ps 0.;
              record "store.verdict" vs 0.)
            times)
        results;
      (* The handler path, replayed on replicas recovered from a data
         dir holding connection 0's case. *)
      let src = Filename.concat cfg.work "edit-trace-src" in
      write_dir src [ 0 ];
      let recover = recover_layers ~dir:src in
      let sample = List.filteri (fun i _ -> i < 300) recs.(0) in
      let lines = List.concat_map (fun r -> [ r.eline; r.evline ]) sample in
      let append, close_wal = scratch_wal (Filename.concat cfg.work "scratch-wal") in
      let stages (req : Protocol.request) =
        match (req.Protocol.op, req.Protocol.digest) with
        | Protocol.Patch, Some d ->
            let user =
              List.fold_left
                (fun a -> function
                  | Store.Set_text (id, t) -> a + String.length t + String.length (Id.to_string id)
                  | _ -> a)
                0 req.Protocol.edits
            in
            append ~user_bytes:user (Wal.Patch (d, req.Protocol.edits)) d
        | _ -> ()
      in
      let overhead = replay ~fresh:(replica cfg (Some src)) ~kind:op_kind ~stages lines in
      let bytes_ratio = close_wal () in
      let snap_dir = fresh_dir (Filename.concat cfg.work "scratch-snap") in
      let image =
        {
          Snapshot.seq = 1;
          cases = List.sort compare (List.concat_map Store.cases (Array.to_list mirrors));
        }
      in
      let path, snap_s, _ = timed (fun () -> Snapshot.write ~dir:snap_dir image) in
      let d name = counter after name -. counter before name in
      client_layers ()
      @ server_layers ~before ~after ~client_p50:p50 ~op:"patch"
      @ protocol_layers ()
      @ [
          ("store.patch_us", per_call "store.patch" *. 1e6, "us");
          ("store.verdict_us", per_call "store.verdict" *. 1e6, "us");
          ("store.dirty_cone_per_patch", ratio (d "store.dirty_cone") (float n_patch), "nodes");
          ("store.verdict_from_memo_share",
            ratio
              (float (Array.fold_left (fun a rs -> a + List.length (List.filter (fun r -> r.ememo) rs)) 0 recs))
              (float (List.length verdicts)), "share");
          ("wal.append_us", per_call "wal.append" *. 1e6, "us");
          ("wal.fsyncs_per_op", ratio (d "store.wal_fsyncs") (d "store.wal_appends"), "count");
          ("wal.bytes_per_user_byte", bytes_ratio, "ratio");
          ("snapshot.count", d "store.snapshots", "count");
          ("snapshot.write_ms", snap_s *. 1e3, "ms");
          ("snapshot.bytes", float (Unix.stat path).Unix.st_size, "bytes");
          reconcile ~handler:[ "handler.patch"; "handler.verdict" ]
            ~stages:[ "store.patch"; "wal.append"; "store.verdict" ];
          ("trace.overhead_share", overhead, "share");
        ]
      @ recover
    end
  in
  {
    attempted = List.length all;
    failed = List.length all - ok + lost;
    e2e =
      [
        ("setup_s", setup_s, "s");
        fst (cpu_per_op ~cpu0 ~cpu1:cpu_end ~ops:ok);
      ];
    named =
      snd (cpu_per_op ~cpu0 ~cpu1:cpu_end ~ops:ok)
      @ [
        ("ops_per_s", float ok /. wall, "1/s");
        ("server_rss_mb", rss, "MB");
        ("patch_p50_ms", p50, "ms");
        ("patch_p90_ms", percentile patches 0.9, "ms");
        ("patch_p99_ms", percentile patches 0.99, "ms");
        ("patch_p999_ms", percentile patches 0.999, "ms");
        ("verdict_p50_ms", median verdicts, "ms");
        ("verdict_p99_ms", percentile verdicts 0.99, "ms");
        ("recover_s", recover_s, "s");
      ];
    layers;
    facts =
      why "edit-session"
        "Writes beside reads on the incremental path: dirty cone, Merkle \
         re-digest, verdict assembly, WAL append with fsync on every patch \
         and the periodic snapshot; parse and full interning never run."
      @ [
          dist "case_nodes" (Array.to_list (Array.map (fun (c : Gen.case) -> c.Gen.n_nodes) cases));
          dist "request_bytes"
            (List.concat_map (List.map (fun r -> String.length r.eline)) (Array.to_list recs));
          ("repeated_payload_share", Json.Num (repeated_share (Array.to_list cases)));
          ("prepared_wal_bytes", Json.int (dir_bytes pristine));
          ("prep_s", Json.Num prep_s);
          ("patches", Json.int n_patch);
        ];
  }

(* --- output --- *)

let e2e_names = [ "setup_s"; "server_cpu_ms_per_op" ]

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
       ms)

let main () =
  let argus = ref "" and work = ref "" and workload = ref "" in
  let seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--argus", Arg.Set_string argus, "PATH the argus executable");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--workload", Arg.Set_string workload, "NAME small-check|ingest|edit-session");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer breakdown");
    ]
    (fun a -> raise (Arg.Bad a))
    "servebench.exe --argus PATH --work DIR --workload NAME [options]";
  let cfg =
    {
      argus = !argus;
      work = !work;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      (* One connection per core, at most two: the load, and the
         per-connection cases of edit-session, stay the same on bigger
         hosts. *)
      conns = max 1 (min 2 (Domain.recommended_domain_count ()));
    }
  in
  if cfg.argus = "" || cfg.work = "" then fail "--argus and --work are required";
  ignore (fresh_dir cfg.work);
  let run =
    match !workload with
    | "small-check" -> small_check
    | "ingest" -> ingest
    | "edit-session" -> edit_session
    | w -> fail "unknown workload %S" w
  in
  let o = run cfg in
  let layers =
    List.map
      (fun (n, u) ->
        match List.find_opt (fun (m, _, _) -> m = n) o.layers with
        | Some m -> m
        | None -> (n, 0., u))
      layer_names
  in
  let not_run =
    List.filter_map
      (fun (n, _) -> if List.exists (fun (m, _, _) -> m = n) o.layers then None else Some (Json.Str n))
      layer_names
  in
  let metrics = if cfg.trace then layers else o.e2e in
  (* Self-check: every metric is printed, with its unit, and is a
     number. *)
  let expected = if cfg.trace then List.map fst layer_names else e2e_names in
  List.iter
    (fun n ->
      match List.find_opt (fun (m, _, _) -> m = n) metrics with
      | Some (_, v, u) when u <> "" && Float.is_finite v -> ()
      | _ -> fail "metric %s missing, without unit or not finite" n)
    expected;
  let error_share = ratio (float o.failed) (float o.attempted) in
  let report =
    Json.Obj
      ([
         ("benchmark", Json.Str "argus-serve/1");
         ("seed", Json.int cfg.seed);
         ("seconds", Json.Num cfg.seconds);
         ("trace", Json.int !trace);
         ("conns", Json.int cfg.conns);
         ("loop", Json.Str "closed");
         ("sync", Json.Str "always");
       ]
      @ o.facts
      @ [
          ("error_share", Json.Num error_share);
          ("end_to_end", metrics_json o.e2e);
          ("named", metrics_json o.named);
        ]
      @
      if cfg.trace then
        [
          ( "per_layer",
            metrics_json
              (layers
              @ List.filter (fun (n, _, _) -> not (List.mem_assoc n layer_names)) o.layers) );
          ("layers_not_run", Json.List not_run);
        ]
      else [])
  in
  print_endline (Json.to_string report);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.failed = 0 && o.attempted > 0));
            ("attempted", Json.int o.attempted);
            ("failed", Json.int o.failed);
            ("metrics", metrics_json metrics);
          ]));
  rm_rf cfg.work

let () =
  match main () with
  | () -> ()
  | exception Failure m ->
      prerr_endline ("servebench: " ^ m);
      exit 1
