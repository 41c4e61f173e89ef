(* Workload [serve-mix]: one client process, closed loop, against a
   `ppcache serve --socket` child with a fresh store, over two
   connections:
   - A sends fresh keys, cycling through three kinds of cold request: an
     optimize that must characterise and fit a new cache, an optimize
     with a new delay budget on a cache fitted earlier in the run, and a
     miss_curve that must profile a new trace.  A thinks for [think_s]
     after each answer;
   - B repeats warm keys (store lookups) and amat requests, with no
     pause.
   One round is A completing one request of each cold kind. *)

module Json = Nmcache_engine.Json
module Store = Nmcache_engine.Store
module Metrics = Nmcache_engine.Metrics
module Service = Core.Service
module Context = Core.Context

(* One server domain: with the client on the other core, the two
   processes never compete for the machine's two CPUs. *)
let server_jobs = 1

(* Long enough that B also runs while no cold work is in the server, so
   the warm metrics see both the warm path and A's blocking. *)
let think_s = 0.1

(* The server's peak memory is read once A has finished this many rounds,
   so it covers the same work in every run whatever the run's speed. *)
let peak_after_rounds = 10

let blocked_threshold_s = 1e-3
let io_timeout_s = 120.0

(* -- requests ------------------------------------------------------------ *)

type kind = Optimize | Miss_curve | Amat

(* [what]: the cold kind ("fit", "budget", "profile") or "warm" *)
type request = { id : string; line : string; kind : kind; what : string }

let kind_name = function Optimize -> "optimize" | Miss_curve -> "miss_curve" | Amat -> "amat"

let optimize ~id ~what ~scheme ~size_kb ~assoc ~block ~budget =
  let line =
    Printf.sprintf
      {|{"id":"%s","op":"optimize","scheme":"%s","size_kb":%d,"assoc":%d,"block_bytes":%d,|}
      id scheme size_kb assoc block
    ^ Printf.sprintf {|"output_bits":64,"delay_budget_ps":%.3f}|} budget
  in
  { id; line; kind = Optimize; what }

let miss_curve ~id ~what ~workload ~l1_kb ~n ~seed =
  let line =
    Printf.sprintf
      {|{"id":"%s","op":"miss_curve","workload":"%s","l1_kb":%d,"l2_kb":[256,1024,4096],|}
      id workload l1_kb
    ^ Printf.sprintf {|"n":%d,"seed":%d}|} n seed
  in
  { id; line; kind = Miss_curve; what }

let amat ~id ~m1 =
  let line =
    Printf.sprintf
      {|{"id":"%s","op":"amat","t_l1_ps":500,"t_l2_ps":2000,"t_mem_ps":60000,"m1":%.4f,"m2":0.3}|}
      id m1
  in
  { id; line; kind = Amat; what = "warm" }

let schemes = [| "I"; "II"; "III" |]
let workloads = Array.of_list Nmcache_workload.Registry.names

(* Every cold miss_curve profiles this workload (a headline workload whose
   generator builds in milliseconds), so the profile kind costs about
   the same every time: well above a budget-only optimize and below most
   fits, which keeps cold_p50_ms inside one kind. *)
let cold_curve_workload = "specweb"

(* Cache shapes for fresh fits, in a fixed order that walks every size
   before repeating one, so each run fits the same mix of sizes whatever
   its seed. *)
let shapes =
  let sizes = [| 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048 |] in
  let assocs = [| 1; 2; 4; 8; 16 |] and blocks = [| 32; 64; 128 |] in
  let ns = Array.length sizes and na = Array.length assocs in
  Array.init (ns * na * Array.length blocks) (fun i ->
      (sizes.(i mod ns), assocs.(i / ns mod na), blocks.(i / (ns * na))))

type plan = {
  warm : request array;  (** B's keys, populated before timing *)
  next_cold : unit -> request;  (** A's next fresh key *)
}

let plan ~seed ~n_curve =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let what = "warm" in
  let warm =
    Array.concat
      [
        Array.init 4 (fun k ->
            optimize ~id:(Printf.sprintf "w-opt-%d" k) ~what ~scheme:schemes.(k mod 3)
              ~size_kb:(8 lsl k) ~assoc:4 ~block:64
              ~budget:(2000.0 +. Random.State.float rng 2000.0));
        Array.init 4 (fun k ->
            miss_curve ~id:(Printf.sprintf "w-mc-%d" k) ~what
              ~workload:workloads.(k mod Array.length workloads) ~l1_kb:(8 lsl (k mod 3))
              ~n:n_curve ~seed:(Random.State.int rng 1_000_000));
        Array.init 2 (fun k ->
            amat ~id:(Printf.sprintf "w-amat-%d" k) ~m1:(0.01 +. Random.State.float rng 0.1));
      ]
  in
  let curve_seeds = 1_000_000 + Random.State.int rng 1_000_000 in
  let fitted = ref [] and count = ref 0 in
  let next_cold () =
    let k = !count in
    incr count;
    let id = Printf.sprintf "a-%d" k in
    let scheme = schemes.(Random.State.int rng 3) in
    let budget = 1500.0 +. Random.State.float rng 3000.0 in
    (* a fresh shape to fit, a fresh budget on a fitted shape (also once
       every shape is fitted), or a fresh trace seed to profile *)
    match k mod 3 with
    | 0 when k / 3 < Array.length shapes ->
      let size_kb, assoc, block = shapes.(k / 3) in
      fitted := (size_kb, assoc, block) :: !fitted;
      optimize ~id ~what:"fit" ~scheme ~size_kb ~assoc ~block ~budget
    | 0 | 1 ->
      let pool = Array.of_list !fitted in
      let size_kb, assoc, block = pool.(Random.State.int rng (Array.length pool)) in
      optimize ~id ~what:"budget" ~scheme ~size_kb ~assoc ~block ~budget
    | _ ->
      miss_curve ~id ~what:"profile" ~workload:cold_curve_workload
        ~l1_kb:(8 lsl Random.State.int rng 3) ~n:n_curve ~seed:(curve_seeds + k)
  in
  { warm; next_cold }

(* A valid answer: one JSON object echoing the request id, with a
   result and no error. *)
let valid (r : request) response =
  match Json.parse response with
  | Error e -> Error ("unparseable response: " ^ e)
  | Ok j -> (
    match (Json.member "id" j, Json.member "result" j, Json.member "error" j) with
    | Some (Json.String id), Some (Json.Obj _), None when id = r.id -> Ok ()
    | _, _, Some e -> Error ("error response " ^ Json.to_string e)
    | _ -> Error "response without the request id or a result")

(* -- the server child and its connections -------------------------------- *)

type server = { pid : int; socket : string }
type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  go 0

(* a complete buffered line, if any *)
let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.sub s 0 i)

let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "server closed the connection"
  | n -> Buffer.add_subbytes c.buf c.chunk 0 n

let rec recv c =
  match take_line c with
  | Some l -> l
  | None ->
    (match Unix.select [ c.fd ] [] [] io_timeout_s with
    | [], _, _ -> failwith "no response from the server"
    | _ -> fill c);
    recv c

let call c line =
  send c line;
  recv c

(* SIGTERM (the server drains and exits), then SIGKILL if it has not
   exited within ten seconds; always reaped. *)
let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Spans.now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Spans.now () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  reap ()

let rec await_socket s deadline =
  match connect s.socket with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
    (match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ -> ()
    | _ -> failwith "ppcache serve exited during start-up");
    if Spans.now () > deadline then begin
      stop_server s;
      failwith "ppcache serve did not open its socket"
    end;
    Unix.sleepf 0.002;
    await_socket s deadline

(* Start a server on a fresh store and wait for its first answer. *)
let start ~ppcache ~dir =
  let socket = Filename.concat dir "serve.sock" in
  let store = Filename.concat dir "store" in
  let log = Filename.concat dir "serve.log" in
  let log = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let jobs = string_of_int server_jobs in
  let argv = [| ppcache; "serve"; "--socket"; socket; "--store"; store; "--jobs"; jobs |] in
  let pid = Unix.create_process ppcache argv null null log in
  Unix.close log;
  Unix.close null;
  let s = { pid; socket } in
  let c = await_socket s (Spans.now () +. 60.0) in
  let health = call c {|{"id":"health","op":"health"}|} in
  (match Json.parse health with
  | Ok j when Json.member "result" j <> None -> ()
  | _ ->
    Unix.close c.fd;
    stop_server s;
    failwith ("bad health answer: " ^ health));
  (s, c)

(* -- the closed loop ---------------------------------------------------------- *)

type sample = {
  req : request;
  conn : char;  (** 'A' or 'B' *)
  latency : float;
  response : string;
  sent_at : float;
}

(* Drive A (cold keys) and B (warm keys) concurrently until [seconds]
   have passed and A has finished a round.  Calls [at_peak] when A
   finishes round [peak_after_rounds].  Returns every sample and the
   round walls. *)
let closed_loop ~plan ~seconds ~at_peak a b =
  let log = ref [] and rounds = ref [] in
  let t0 = Spans.now () in
  let round_start = ref t0 and a_done = ref 0 and finishing = ref false in
  let warm_i = ref 0 in
  let next_warm () =
    let r = plan.warm.(!warm_i mod Array.length plan.warm) in
    incr warm_i;
    r
  in
  let send_request c req =
    send c req.line;
    Some (req, Spans.now ())
  in
  let pa = ref (send_request a (plan.next_cold ())) and a_due = ref None in
  let pb = ref (send_request b (next_warm ())) in
  let complete tag c pending =
    match (!pending, take_line c) with
    | Some (req, sent_at), Some response ->
      let now = Spans.now () in
      log := { req; conn = tag; latency = now -. sent_at; response; sent_at } :: !log;
      pending := None;
      if tag = 'A' then begin
        incr a_done;
        if !a_done mod 3 = 0 then begin
          rounds := (now -. !round_start) :: !rounds;
          if List.length !rounds = peak_after_rounds then at_peak ();
          round_start := now;
          if now -. t0 >= seconds then finishing := true
        end;
        if not !finishing then a_due := Some (now +. think_s)
      end
      else if not !finishing then pending := send_request c (next_warm ())
    | _ -> ()
  in
  while !pa <> None || !pb <> None || !a_due <> None do
    (match !a_due with
    | Some due when Spans.now () >= due ->
      a_due := None;
      pa := send_request a (plan.next_cold ())
    | _ -> ());
    let waiting = List.filter (fun (_, p) -> !p <> None) [ (a, pa); (b, pb) ] in
    let timeout =
      match !a_due with Some due -> Float.max 0.0 (due -. Spans.now ()) | None -> io_timeout_s
    in
    (match Unix.select (List.map (fun (c, _) -> c.fd) waiting) [] [] timeout with
    | [], _, _ when !a_due = None -> failwith "serve-mix: no response within the I/O timeout"
    | ready, _, _ -> List.iter (fun c -> if List.mem c.fd ready then fill c) [ a; b ]);
    complete 'A' a pa;
    complete 'B' b pb
  done;
  (List.rev !log, List.rev !rounds)

(* -- in-process replay (traced run) -------------------------------------------- *)

let class_name (r : request) ~warm =
  match r.kind with
  | Amat -> "service.handle_us.amat"
  | k -> Printf.sprintf "service.handle_us.%s.%s" (kind_name k) (if warm then "warm" else "cold")

(* The per-layer class of each request in a stream: a key's first
   request is cold, every repeat warm. *)
let classify requests =
  let seen = Hashtbl.create 64 in
  List.map
    (fun (r : request) ->
      let warm = Hashtbl.mem seen r.line in
      Hashtbl.replace seen r.line ();
      class_name r ~warm)
    requests

(* Replay a request stream through Service.handle_line in this process,
   as a fresh server would see it (fresh store, empty memo tables).
   Returns per-request handle times in stream order, total wall, the
   store open time and the store hit ratio. *)
let replay ~dir ~traced requests =
  let ctx = Context.default () in
  Context.clear_memo ();
  Nmcache_workload.Missrate.clear_cache ();
  Out.rm_rf dir;
  let store, open_s = Out.timed (fun () -> Store.open_ ~dir) in
  let service = Service.create ~store ~ctx ~queue:64 ~jobs:server_jobs () in
  let count = Metrics.counter_value in
  let hits0 = count "store.hits" and misses0 = count "store.misses" in
  let handle (r : request) cls =
    snd
      (Spans.timed cls (fun () ->
           let _, settle = Service.handle_line service r.line in
           settle ()))
  in
  Spans.enabled := traced;
  let times, wall = Out.timed (fun () -> List.map2 handle requests (classify requests)) in
  Spans.enabled := false;
  Store.close store;
  let hits = count "store.hits" - hits0 and misses = count "store.misses" - misses0 in
  (times, wall, open_s, float_of_int hits /. float_of_int (max 1 (hits + misses)))

(* Store and JSON probes: median time of one direct call. *)
let store_probe ~dir lines =
  Out.rm_rf dir;
  let store = Store.open_ ~dir in
  let keyed = List.mapi (fun i l -> (Printf.sprintf "probe-%d" i, l)) lines in
  let time name f = List.map (fun kl -> snd (Spans.timed name (fun () -> f kl))) keyed in
  let add =
    time "store.add" (fun (key, l) -> Store.add store ~ns:"probe" ~key (l, Json.parse_exn l))
  in
  let lookup =
    time "store.lookup" (fun (key, _) ->
        Sys.opaque_identity (Store.lookup store ~ns:"probe" ~key : (string * Json.t) option))
  in
  Store.close store;
  (Sample.median add, Sample.median lookup)

let json_probe lines responses =
  let parse = List.map (fun l -> snd (Spans.timed "json.parse" (fun () -> Json.parse l))) lines in
  let print =
    List.map
      (fun r ->
        let j = Json.parse_exn r in
        snd (Spans.timed "json.print" (fun () -> Json.to_string j)))
      responses
  in
  (Sample.median parse, Sample.median print)

let first n l = List.filteri (fun i _ -> i < n) l

(* The per-layer metrics: the run's request stream replayed in-process,
   untraced then traced, plus the store and JSON probes. *)
let layers ~dir ~(plan : plan) ~warm samples =
  (* the stream the server saw: population, then the loop in send order *)
  let loop = List.sort (fun x y -> compare x.sent_at y.sent_at) samples in
  let stream = Array.to_list plan.warm @ List.map (fun s -> s.req) loop in
  let rdir = Filename.concat dir "replay" in
  let _, plain_wall, _, _ = replay ~dir:rdir ~traced:false stream in
  let times, traced_wall, open_s, hit_ratio = replay ~dir:rdir ~traced:true stream in
  let classed = List.combine (classify stream) times in
  let median_us cls =
    match List.filter_map (fun (c, t) -> if c = cls then Some t else None) classed with
    | [] -> 0.0
    | xs -> 1e6 *. Sample.median xs
  in
  let b_loop = List.filter (fun s -> s.conn = 'B') loop in
  Spans.enabled := true;
  let add_s, lookup_s =
    store_probe ~dir:(Filename.concat dir "probe") (first 200 (List.map (fun r -> r.line) stream))
  in
  let parse_s, print_s =
    json_probe
      (first 2000 (List.map (fun s -> s.req.line) b_loop))
      (first 2000 (List.map (fun s -> s.response) b_loop))
  in
  Spans.enabled := false;
  (* handler time against client-observed round trips, request by request *)
  let loop_times = List.filteri (fun i _ -> i >= Array.length plan.warm) times in
  let paired = List.combine loop loop_times in
  let handled = Sample.sum loop_times in
  let observed = Sample.sum (List.map (fun s -> s.latency) loop) in
  let warm_handle = List.filter_map (fun (s, t) -> if s.conn = 'B' then Some t else None) paired in
  let blocked = List.length (List.filter (fun l -> l > blocked_threshold_s) warm) in
  List.filter_map
    (fun (n, _, _, _) ->
      if String.starts_with ~prefix:"service.handle_us." n then Some (n, median_us n) else None)
    Catalog.per_layer
  @ [
      ("store.lookup_us", 1e6 *. lookup_s);
      ("store.add_us", 1e6 *. add_s);
      ("store.open_ms", 1e3 *. open_s);
      ("store.hit_ratio", hit_ratio);
      ("json.parse_us", 1e6 *. parse_s);
      ("json.print_us", 1e6 *. print_s);
      ("server.residual_us", 1e6 *. (Sample.median warm -. Sample.median warm_handle));
      ("server.blocked_requests", float_of_int blocked);
      ("residual_frac", 1.0 -. (handled /. observed));
      ("trace_overhead_frac", (traced_wall /. plain_wall) -. 1.0);
    ]

(* -- the workload --------------------------------------------------------------- *)

let run ~ppcache (p : Out.params) (ledger : Out.ledger) =
  let dir = Out.scratch_dir "serve-mix" in
  Fun.protect ~finally:(fun () -> Out.rm_rf dir) @@ fun () ->
  let n_curve = if p.Out.smoke then 20_000 else 100_000 in
  let plan = plan ~seed:p.Out.seed ~n_curve in
  let server = ref None and conns = ref [] in
  let stop () =
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
    conns := [];
    Option.iter stop_server !server;
    server := None
  in
  Fun.protect ~finally:stop @@ fun () ->
  (* set-up: start a server on a fresh store and populate B's warm keys,
     three times; every set-up must give the same first answers.  The
     last server stays up for the timed loop. *)
  let expected = Hashtbl.create 16 in
  let setups =
    List.init 3 (fun i ->
        stop ();
        let sdir = Filename.concat dir (Printf.sprintf "server-%d" i) in
        Unix.mkdir sdir 0o755;
        let answers, dt =
          Out.timed (fun () ->
              let s, c = start ~ppcache ~dir:sdir in
              server := Some s;
              conns := [ c ];
              Array.map (fun (r : request) -> (r, call c r.line)) plan.warm)
        in
        Array.iter
          (fun ((r : request), response) ->
            Out.attempt ledger;
            match (valid r response, Hashtbl.find_opt expected r.line) with
            | Error e, _ -> Out.fail ledger "set-up %d %s: %s" i r.id e
            | Ok (), None ->
              Hashtbl.replace expected r.line (if p.Out.tamper then response ^ " " else response)
            | Ok (), Some first ->
              if first <> response then
                Out.fail ledger "set-up %d %s: answer differs from set-up 0" i r.id)
          answers;
        dt)
  in
  let srv = Option.get !server and b = List.hd !conns in
  let a = connect srv.socket in
  conns := a :: !conns;
  let seconds = if p.Out.trace then p.Out.seconds /. 2.0 else p.Out.seconds in
  let peak = ref None in
  let read_peak () = peak := Some (Out.peak_rss_mb (string_of_int srv.pid)) in
  let samples, rounds = closed_loop ~plan ~seconds ~at_peak:read_peak a b in
  if !peak = None then read_peak ();
  stop ();
  List.iter
    (fun s ->
      Out.attempt ledger;
      match valid s.req s.response with
      | Error e -> Out.fail ledger "%c %s: %s" s.conn s.req.id e
      | Ok () -> (
        match Hashtbl.find_opt expected s.req.line with
        | Some first when s.conn = 'B' && first <> s.response ->
          Out.fail ledger "B %s: warm answer differs from the key's first answer" s.req.id
        | _ -> ()))
    samples;
  let latencies conn =
    List.filter_map (fun s -> if s.conn = conn then Some s.latency else None) samples
  in
  let warm = latencies 'B' and cold = latencies 'A' in
  (* B's throughput over the span from its first send to its last answer *)
  let span_b =
    match List.filter (fun s -> s.conn = 'B') samples with
    | [] -> 1.0
    | first :: _ as bs ->
      let last = List.nth bs (List.length bs - 1) in
      last.sent_at +. last.latency -. first.sent_at
  in
  let e2e, e2e_detail =
    Out.end_to_end ~setups ~walls:rounds ~peak_mb:(Option.get !peak) ~warm
      ~warm_per_s:(float_of_int (List.length warm) /. span_b)
      ~warm_cap:90.0 ~cold ~cold_cap:75.0
  in
  let layers = if p.Out.trace then layers ~dir ~plan ~warm samples else [] in
  let cold_p50_ms what =
    match List.filter_map (fun s -> if s.req.what = what then Some s.latency else None) samples with
    | [] -> 0.0
    | xs -> 1e3 *. Sample.median xs
  in
  let detail =
    [
      ("jobs", Json.Int server_jobs);
      ("context", Json.String "default");
      ("server", Json.String "ppcache serve --socket --store (fresh store)");
      ("clients", Json.String "1 process, 2 connections, closed loop");
      ("think_ms", Json.Float (1e3 *. think_s));
      ("warm_keys", Json.Int (Array.length plan.warm));
      ("warm_requests", Json.Int (List.length warm));
      ("cold_requests", Json.Int (List.length cold));
      ( "cold_p50_ms_by_kind",
        Json.Obj
          (List.map (fun w -> (w, Json.Float (cold_p50_ms w))) [ "fit"; "budget"; "profile" ]) );
      ("miss_curve_n", Json.Int n_curve);
      ("rounds", Json.Int (List.length rounds));
      ("blocked_threshold_ms", Json.Float (1e3 *. blocked_threshold_s));
    ]
    @ e2e_detail
  in
  { Out.e2e; layers; detail }
