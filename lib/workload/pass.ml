module Cache = Nmcache_cachesim.Cache
module Hierarchy = Nmcache_cachesim.Hierarchy
module Mattson = Nmcache_cachesim.Mattson
module Prefetch = Nmcache_cachesim.Prefetch
module Memo = Nmcache_engine.Memo
module Retry = Nmcache_engine.Retry
module Deadline = Nmcache_engine.Deadline
module Faultpoint = Nmcache_engine.Faultpoint
module Span = Nmcache_engine.Span
module Metrics = Nmcache_engine.Metrics
module Json = Nmcache_engine.Json

type demand = {
  prefetch : Prefetch.t;
  mutable accesses : int;
  mutable misses : int;
}

type consumer =
  | Profiler of { profiler : Mattson.t; filter : Cache.t option }
  | Cache of Cache.t
  | Hierarchy of Hierarchy.t
  | Prefetch of demand

let demand prefetch = { prefetch; accesses = 0; misses = 0 }

(* A warmup prefix of half the trace fills caches and the LRU stack
   before counters start, so results reflect steady state rather than
   cold start. *)
let warmup_fraction = 0.5

(* 32 KB of packed accesses: small enough to stay in a core's cache
   while every consumer walks it.  It is also the deadline grain: one
   poll per full chunk bounds a wedged traversal to 4096 accesses, and
   a trace shorter than a chunk never polls. *)
let chunk_size = 4096

(* the warm-up boundary: the measured window starts here *)
let measure = function
  | Profiler { profiler; filter } ->
    Option.iter Cache.reset_stats filter;
    Mattson.set_measuring profiler true
  | Cache c -> Cache.reset_stats c
  | Hierarchy h ->
    Cache.reset_stats (Hierarchy.l1 h);
    Cache.reset_stats (Hierarchy.l2 h)
  | Prefetch d ->
    d.accesses <- 0;
    d.misses <- 0

(* one consumer walks chunk.(off .. off + len - 1) in its own loop *)
let feed consumer chunk off len =
  match consumer with
  | Profiler { profiler; filter = None } ->
    for i = off to off + len - 1 do
      Mattson.access profiler (chunk.(i) asr 1)
    done
  | Profiler { profiler; filter = Some l1 } ->
    for i = off to off + len - 1 do
      let e = chunk.(i) in
      let addr = e asr 1 in
      if not (Cache.access l1 addr ~write:(e land 1 = 1)).Cache.hit then
        Mattson.access profiler addr
    done
  | Cache c ->
    for i = off to off + len - 1 do
      let e = chunk.(i) in
      ignore (Cache.access c (e asr 1) ~write:(e land 1 = 1))
    done
  | Hierarchy h ->
    for i = off to off + len - 1 do
      let e = chunk.(i) in
      ignore (Hierarchy.access h (e asr 1) ~write:(e land 1 = 1))
    done
  | Prefetch d ->
    for i = off to off + len - 1 do
      let e = chunk.(i) in
      let o = Prefetch.access d.prefetch (e asr 1) ~write:(e land 1 = 1) in
      if not o.Prefetch.l1_hit then begin
        d.accesses <- d.accesses + 1;
        if not o.Prefetch.l2_hit then d.misses <- d.misses + 1
      end
    done

let traverse ~workload ~seed ~n consumers =
  Span.with_span
    ~attrs:
      [
        ("workload", Json.String workload);
        ("n", Json.Int n);
        ("consumers", Json.Int (Array.length consumers));
      ]
    "workload:pass"
    (fun () ->
      let gen = Registry.build ~seed workload in
      Metrics.incr "cachesim.generator_passes";
      let warm = int_of_float (warmup_fraction *. float_of_int n) in
      Array.iter
        (function
          | Profiler { profiler; _ } -> Mattson.set_measuring profiler false
          | Cache _ | Hierarchy _ | Prefetch _ -> ())
        consumers;
      let chunk = Array.make chunk_size 0 in
      let feed_all off len = Array.iter (fun c -> feed c chunk off len) consumers in
      let measure_all () = Array.iter measure consumers in
      if warm = 0 then measure_all ();
      let pos = ref 0 in
      while !pos < n do
        let len = min chunk_size (n - !pos) in
        if len = chunk_size then Deadline.poll ~stage:"simulate";
        Gen.fill gen chunk len;
        (* accesses before the boundary still warm up *)
        let split = warm - !pos in
        if split > 0 && split < len then begin
          feed_all 0 split;
          measure_all ();
          feed_all split (len - split)
        end
        else begin
          feed_all 0 len;
          if split = len then measure_all ()
        end;
        pos := !pos + len
      done)

(* --- batches ----------------------------------------------------------- *)

type t = {
  workload : string;
  seed : int64;
  n : int;
  lock : Mutex.t;
  mutable jobs : (unit -> consumer option) list;  (* newest first *)
  mutable ran : bool;
}

type 'a handle = {
  pass : t;
  memo : 'a Memo.t;
  key : string;
  fault_point : bool;
  make : unit -> consumer * (unit -> 'a);
  (* set by the batch traversal: how to read this result, or why its
     consumer could not be built *)
  mutable prepared : (unit -> 'a, exn * Printexc.raw_backtrace) result option;
}

let create ~workload ~seed ~n =
  { workload; seed; n; lock = Mutex.create (); jobs = []; ran = false }

let workload t = t.workload
let seed t = t.seed
let n t = t.n

let request t ~memo ~key ?(fault_point = true) make =
  let h = { pass = t; memo; key; fault_point; make; prepared = None } in
  (* a filled key needs no consumer: the probe keeps warm batches from
     building caches and profilers they would never read *)
  let job () =
    if Memo.mem memo key then begin
      h.prepared <- None;
      None
    end
    else
      match make () with
      | consumer, finish ->
        h.prepared <- Some (Ok finish);
        Some consumer
      | exception e ->
        h.prepared <- Some (Error (e, Printexc.get_raw_backtrace ()));
        None
  in
  Mutex.protect t.lock (fun () -> t.jobs <- job :: t.jobs);
  h

(* The batch's one traversal, run by whichever domain first needs a
   result; the others block on the lock and then read theirs.  A
   traversal that raises (a deadline, an unknown workload) leaves the
   batch unrun, so the next [get] retries it with fresh consumers. *)
let run t =
  Mutex.protect t.lock (fun () ->
      if not t.ran then begin
        let consumers = Array.of_list (List.filter_map (fun job -> job ()) (List.rev t.jobs)) in
        if Array.length consumers > 0 then
          traverse ~workload:t.workload ~seed:t.seed ~n:t.n consumers;
        t.ran <- true
      end)

let get h =
  let compute () =
    run h.pass;
    let finish =
      match h.prepared with
      | Some (Ok finish) -> finish
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None ->
        (* requested after the batch ran, or evicted since: a
           traversal of its own *)
        let consumer, finish = h.make () in
        let p = h.pass in
        traverse ~workload:p.workload ~seed:p.seed ~n:p.n [| consumer |];
        finish
    in
    (* release the consumer: its result is about to enter the memo *)
    h.prepared <- None;
    finish ()
  in
  Memo.find_or_compute h.memo h.key (fun () ->
      if not h.fault_point then compute ()
      else
        (* the retry boundary sits inside the memo, so a transient
           injected fault is recovered before any waiter sees it; the
           fault point stays key-deterministic at any --jobs *)
        Retry.run ~stage:"simulate" ~key:h.key (fun ~attempt ~last:_ ->
            Faultpoint.hit ~attempt ~point:"simulate" ~key:h.key ();
            compute ()))
