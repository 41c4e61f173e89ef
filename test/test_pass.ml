(* Tests for the shared generator pass: a batch of specs fed by one
   traversal equals one-spec passes field for field, a fault on one
   key of a batch fails that key alone, and the memo probe the batches
   rely on. *)

module Cache = Nmcache_cachesim.Cache
module Prefetch = Nmcache_cachesim.Prefetch
module Replacement = Nmcache_cachesim.Replacement
module Memo = Nmcache_engine.Memo
module Metrics = Nmcache_engine.Metrics
module Fault = Nmcache_engine.Fault
module Faultpoint = Nmcache_engine.Faultpoint
module Retry = Nmcache_engine.Retry
module Deadline = Nmcache_engine.Deadline
module Executor = Nmcache_engine.Executor
module Sweep = Nmcache_engine.Sweep
module Task = Nmcache_engine.Task
module Pass = Nmcache_workload.Pass
module Profile = Nmcache_workload.Profile
module Missrate = Nmcache_workload.Missrate

let kb n = n * 1024
let () = Retry.set_sleep (fun _ -> ())

(* --- the differential property ---------------------------------------- *)

type spec =
  | Prof of { kind : Profile.kind; block : int }
  | L1 of { policy : Replacement.t; l1_size : int; l1_assoc : int; block : int }
  | Point of {
      policy : Replacement.t;
      l1_size : int;
      l1_assoc : int;
      l2_size : int;
      block : int;
    }
  | Pf of { degree : int; l2_size : int }

let print_spec = function
  | Prof { kind = Profile.Raw; block } -> Printf.sprintf "raw/%dB" block
  | Prof { kind = Profile.L1_filtered { l1_size; l1_assoc }; block } ->
    Printf.sprintf "l1-filtered %dK %d-way/%dB" (l1_size / 1024) l1_assoc block
  | L1 { policy; l1_size; l1_assoc; block } ->
    Printf.sprintf "l1 %s %dK %d-way/%dB" (Replacement.name policy) (l1_size / 1024)
      l1_assoc block
  | Point { policy; l1_size; l1_assoc; l2_size; block } ->
    Printf.sprintf "point %s %dK %d-way + %dK/%dB" (Replacement.name policy)
      (l1_size / 1024) l1_assoc (l2_size / 1024) block
  | Pf { degree; l2_size } -> Printf.sprintf "prefetch d%d %dK" degree (l2_size / 1024)

(* every shape below is a legal cache: size >= 8 ways x 128 B, and the
   L2 always outgrows the L1 *)
let spec_gen =
  let open QCheck.Gen in
  let block = oneofl [ 32; 64; 128 ] in
  let l1_size = oneofl [ kb 1; kb 4; kb 16 ] in
  let assoc = oneofl [ 1; 2; 4; 8 ] in
  let non_lru = oneofl [ Replacement.Fifo; Replacement.Random 5; Replacement.Plru ] in
  let policy = oneofl [ Replacement.Lru; Replacement.Fifo; Replacement.Random 9; Replacement.Plru ] in
  oneof
    [
      map (fun block -> Prof { kind = Profile.Raw; block }) block;
      map3
        (fun l1_size l1_assoc block ->
          Prof { kind = Profile.L1_filtered { l1_size; l1_assoc }; block })
        l1_size assoc block;
      map3
        (fun (policy, l1_size) l1_assoc block -> L1 { policy; l1_size; l1_assoc; block })
        (pair non_lru l1_size) assoc block;
      map3
        (fun (policy, l1_size) (l1_assoc, l2_size) block ->
          Point { policy; l1_size; l1_assoc; l2_size; block })
        (pair policy l1_size)
        (pair assoc (oneofl [ kb 32; kb 256 ]))
        block;
      map2 (fun degree l2_size -> Pf { degree; l2_size }) (int_bound 2) (oneofl [ kb 32; kb 256 ]);
    ]

(* trace lengths straddling the chunk: empty, a single (measured)
   access, shorter than a chunk, a boundary exactly on a chunk edge,
   and one in the middle of the second chunk *)
let n_gen = QCheck.Gen.oneofl [ 0; 1; 1500; 2 * Pass.chunk_size; 10_000 ]

let batch_arb =
  QCheck.make
    ~print:(fun (n, specs) ->
      Printf.sprintf "n=%d [%s]" n (String.concat "; " (List.map print_spec specs)))
    QCheck.Gen.(pair n_gen (list_size (int_range 1 5) spec_gen))

let seed = 20_260_417L
let workload = "spec2000-mix"

let prefetcher degree l2_size =
  let l1 = Cache.create ~size_bytes:(kb 4) ~assoc:4 ~block_bytes:64 ~policy:Replacement.Lru () in
  let l2 = Cache.create ~size_bytes:l2_size ~assoc:8 ~block_bytes:64 ~policy:Replacement.Lru () in
  Pass.demand (Prefetch.create ~degree ~l1 ~l2 ())

let prefetch_counters (d : Pass.demand) =
  (d.Pass.accesses, d.Pass.misses, Prefetch.prefetches d.Pass.prefetch,
   Prefetch.useful_prefetches d.Pass.prefetch)

(* every result rendered to bytes, so nan fields compare equal *)
let marshal v = Marshal.to_string v []

(* One traversal for the whole batch: every spec is requested before
   the first get.  Prefetch counters have no memo of their own in the
   library, so the test gives them a throwaway one. *)
let batched ~n specs =
  Missrate.clear_cache ();
  let prefetch_memo : (int * int * int * int) Memo.t = Memo.create ~name:"test.prefetch" () in
  let pass = Pass.create ~workload ~seed ~n in
  let pending =
    List.mapi
      (fun i spec ->
        match spec with
        | Prof { kind; block } ->
          let h = Profile.request pass ~block kind in
          fun () -> marshal (Pass.get h)
        | L1 { policy; l1_size; l1_assoc; block } ->
          let r =
            Missrate.request_l1_sweep pass ~policy ~l1_assoc ~block ~l1_sizes:[| l1_size |] ()
          in
          fun () -> marshal (Missrate.l1_sweep_rates r)
        | Point { policy; l1_size; l1_assoc; l2_size; block } ->
          let h = Missrate.request_point pass ~policy ~l1_assoc ~block ~l1_size ~l2_size () in
          fun () -> marshal (Pass.get h)
        | Pf { degree; l2_size } ->
          let h =
            Pass.request pass ~memo:prefetch_memo ~key:(string_of_int i) ~fault_point:false
              (fun () ->
                let d = prefetcher degree l2_size in
                (Pass.Prefetch d, fun () -> prefetch_counters d))
          in
          fun () -> marshal (Pass.get h))
      specs
  in
  let passes0 = Metrics.counter_value "cachesim.generator_passes" in
  let got = List.map (fun get -> get ()) pending in
  (got, Metrics.counter_value "cachesim.generator_passes" - passes0)

let solo ~n spec =
  Missrate.clear_cache ();
  match spec with
  | Prof { kind = Profile.Raw; block } -> marshal (Profile.raw ~block ~seed ~workload ~n ())
  | Prof { kind = Profile.L1_filtered { l1_size; l1_assoc }; block } ->
    marshal (Profile.l1_filtered ~l1_assoc ~block ~seed ~workload ~l1_size ~n ())
  | L1 { policy; l1_size; l1_assoc; block } ->
    marshal
      (Missrate.l1_sweep ~policy ~l1_assoc ~block ~seed ~workload ~l1_sizes:[| l1_size |] ~n ())
  | Point { policy; l1_size; l1_assoc; l2_size; block } ->
    marshal (Missrate.simulate ~policy ~l1_assoc ~block ~seed ~workload ~l1_size ~l2_size ~n ())
  | Pf { degree; l2_size } ->
    let d = prefetcher degree l2_size in
    Pass.traverse ~workload ~seed ~n [| Pass.Prefetch d |];
    marshal (prefetch_counters d)

let prop_batch_equals_solo =
  QCheck.Test.make ~count:12 ~name:"batched pass = one-spec passes, field for field" batch_arb
    (fun (n, specs) ->
      let got, passes = batched ~n specs in
      let want = List.map (solo ~n) specs in
      if passes <> 1 then QCheck.Test.fail_reportf "%d generator passes for one batch" passes;
      List.iteri
        (fun i (g, w) ->
          if g <> w then
            QCheck.Test.fail_reportf "spec %d (%s) differs from its one-spec pass" i
              (print_spec (List.nth specs i)))
        (List.combine got want);
      true)

(* --- fault isolation ---------------------------------------------------- *)

let with_faults spec ~attempts f =
  (match Faultpoint.configure spec with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("spec rejected: " ^ msg));
  Retry.set_max_attempts attempts;
  Fun.protect
    ~finally:(fun () ->
      Faultpoint.clear ();
      Retry.reset ();
      Fault.reset ())
    f

let iso_n = 6000

(* four results on one pass, each collected in its own sweep slot *)
let batch_slots () =
  let pass = Pass.create ~workload ~seed ~n:iso_n in
  let raw = Profile.request pass Profile.Raw in
  let filtered = Profile.request pass (Profile.L1_filtered { l1_size = kb 8; l1_assoc = 4 }) in
  let wide = Profile.request pass ~block:128 Profile.Raw in
  let point = Missrate.request_point pass ~l1_size:(kb 16) ~l2_size:(kb 256) () in
  [|
    (fun () -> marshal (Pass.get raw));
    (fun () -> marshal (Pass.get filtered));
    (fun () -> marshal (Pass.get wide));
    (fun () -> marshal (Pass.get point));
  |]

let solo_slots () =
  [|
    (fun () -> marshal (Profile.raw ~seed ~workload ~n:iso_n ()));
    (fun () -> marshal (Profile.l1_filtered ~seed ~workload ~l1_size:(kb 8) ~n:iso_n ()));
    (fun () -> marshal (Profile.raw ~block:128 ~seed ~workload ~n:iso_n ()));
    (fun () ->
      marshal (Missrate.simulate ~seed ~workload ~l1_size:(kb 16) ~l2_size:(kb 256) ~n:iso_n ()));
  |]

let faulted_key =
  Profile.key ~workload
    ~kind:(Profile.L1_filtered { l1_size = kb 8; l1_assoc = 4 })
    ~block:64 ~seed ~n:iso_n

let collect slots =
  Sweep.map_array_result (Task.make ~name:"test.pass-batch" (fun get -> get ())) slots

let test_permanent_fault_isolated () =
  let solo =
    Array.map
      (fun get ->
        Missrate.clear_cache ();
        get ())
      (solo_slots ())
  in
  let run jobs =
    Missrate.clear_cache ();
    (* a targeted arm fires on the first attempt only: with one attempt
       it is a permanent fault *)
    with_faults ("simulate=" ^ faulted_key) ~attempts:1 (fun () ->
        let results = Executor.with_jobs jobs (fun () -> collect (batch_slots ())) in
        (* the siblings settled into their memos: asking again traverses nothing *)
        let passes0 = Metrics.counter_value "cachesim.generator_passes" in
        let again =
          Array.mapi (fun i get -> if i = 1 then None else Some (get ())) (solo_slots ())
        in
        Alcotest.(check int)
          (Printf.sprintf "siblings memoised (jobs %d)" jobs)
          passes0
          (Metrics.counter_value "cachesim.generator_passes");
        Array.iteri
          (fun i a ->
            match a with
            | Some v -> Alcotest.(check bool) (Printf.sprintf "memo %d = solo" i) true (v = solo.(i))
            | None -> ())
          again;
        results)
  in
  let fault_of = function Ok _ -> None | Error f -> Some (Fault.to_string f) in
  let r1 = run 1 and r2 = run 2 in
  Array.iteri
    (fun i r ->
      if i = 1 then
        Alcotest.(check (option string))
          "only the armed key fails"
          (Some (Fault.to_string (Fault.make ~kind:Fault.Injected ~stage:"simulate" faulted_key)))
          (fault_of r)
      else
        match r with
        | Ok v -> Alcotest.(check bool) (Printf.sprintf "sibling %d = solo build" i) true (v = solo.(i))
        | Error f -> Alcotest.failf "sibling %d faulted: %s" i (Fault.to_string f))
    r1;
  Alcotest.(check (array (option string)))
    "same faults at --jobs 1 and --jobs 2" (Array.map fault_of r1) (Array.map fault_of r2)

let test_transient_fault_recovered () =
  Missrate.clear_cache ();
  let want = (solo_slots ()).(1) () in
  Missrate.clear_cache ();
  let recovered0 = Metrics.counter_value "retry.recovered" in
  let got =
    with_faults ("simulate=" ^ faulted_key) ~attempts:3 (fun () -> collect (batch_slots ()))
  in
  Alcotest.(check bool) "a retry recovered the injection" true
    (Metrics.counter_value "retry.recovered" > recovered0);
  match got.(1) with
  | Ok v -> Alcotest.(check bool) "recovered value = un-injected value" true (v = want)
  | Error f -> Alcotest.failf "transient fault not recovered: %s" (Fault.to_string f)

(* --- the driver's seams ------------------------------------------------- *)

let test_deadline_polls_per_full_chunk () =
  let timed_out n =
    let d = Pass.demand (Prefetch.create ~degree:0
                           ~l1:(Cache.create ~size_bytes:(kb 4) ~assoc:4 ~block_bytes:64
                                  ~policy:Replacement.Lru ())
                           ~l2:(Cache.create ~size_bytes:(kb 32) ~assoc:8 ~block_bytes:64
                                  ~policy:Replacement.Lru ()) ()) in
    match
      Deadline.with_budget ~budget_s:0.0 (fun () ->
          Pass.traverse ~workload ~seed ~n [| Pass.Prefetch d |])
    with
    | () -> false
    | exception Fault.Fault f -> f.Fault.kind = Fault.Timed_out
  in
  (* a poll per full chunk: a trace times out exactly when it reaches
     a 4096th access *)
  Alcotest.(check bool) "shorter than a chunk: no poll" false (timed_out (Pass.chunk_size - 1));
  Alcotest.(check bool) "one full chunk polls" true (timed_out Pass.chunk_size)

let test_batch_counts_one_pass () =
  Missrate.clear_cache ();
  let n = 3000 in
  let pass = Pass.create ~workload ~seed ~n in
  let handles =
    List.map
      (fun l1_size ->
        Profile.request pass (Profile.L1_filtered { l1_size; l1_assoc = 4 }))
      [ kb 4; kb 8; kb 16 ]
  in
  let passes0 = Metrics.counter_value "cachesim.generator_passes" in
  List.iter (fun h -> ignore (Pass.get h)) handles;
  Alcotest.(check int) "three profiles, one pass" 1
    (Metrics.counter_value "cachesim.generator_passes" - passes0);
  (* a batch whose keys are all filled never traverses *)
  let warm = Pass.create ~workload ~seed ~n in
  let again =
    List.map
      (fun l1_size -> Profile.request warm (Profile.L1_filtered { l1_size; l1_assoc = 4 }))
      [ kb 4; kb 16 ]
  in
  List.iter (fun h -> ignore (Pass.get h)) again;
  Alcotest.(check int) "filled batch skips its pass" 1
    (Metrics.counter_value "cachesim.generator_passes" - passes0)

(* --- Memo.mem ----------------------------------------------------------- *)

let test_memo_mem () =
  let m : int Memo.t = Memo.create ~name:"test.memo-mem" () in
  Alcotest.(check bool) "absent" false (Memo.mem m "k");
  let during =
    Memo.find_or_compute m "k" (fun () ->
        (* our own in-flight compute is Pending, not filled *)
        if Memo.mem m "k" then 1 else 0)
  in
  Alcotest.(check int) "pending is not filled" 0 during;
  Alcotest.(check bool) "done" true (Memo.mem m "k");
  (match Memo.find_or_compute m "bad" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "compute should have raised"
  | exception Failure _ -> ());
  Alcotest.(check bool) "after a failed compute" false (Memo.mem m "bad");
  let hits0, misses0 = Memo.stats m in
  ignore (Memo.mem m "k");
  Alcotest.(check (pair int int)) "probe records no hit or miss" (hits0, misses0) (Memo.stats m)

let suite =
  [
    Alcotest.test_case "permanent fault fails only its key" `Quick
      test_permanent_fault_isolated;
    Alcotest.test_case "transient fault recovered identically" `Quick
      test_transient_fault_recovered;
    Alcotest.test_case "deadline polls per full chunk" `Quick test_deadline_polls_per_full_chunk;
    Alcotest.test_case "one pass per batch" `Quick test_batch_counts_one_pass;
    Alcotest.test_case "memo mem probe" `Quick test_memo_mem;
  ]
  @ List.map Generators.to_alcotest [ prop_batch_equals_solo ]
