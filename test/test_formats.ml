(* On-disk format fixtures: one tiny committed file per format —
   PPCKPT01 (run checkpoint), PPSTOR01 (append-grown store, with one
   dead duplicate and one torn tail), PPSTOR02 (compacted store) and
   PPTRC01 (chunked trace recording).  Each test copies its fixture to
   a fresh directory before opening it (opening truncates torn tails)
   and pins the exact entries, values and replay counters; the last
   test re-runs the operations that wrote the fixtures and demands
   byte-identical files.  Any change to the record layout, framing or
   replay rules therefore shows up here first.

   Values are only marshalled ints and strings, whose [Marshal]
   encoding is the same under every supported compiler. *)

module Checkpoint = Nmcache_engine.Checkpoint
module Store = Nmcache_engine.Store
module Stream = Nmcache_cachesim.Stream_trace
module Trace = Nmcache_cachesim.Trace

let fixture name = Filename.concat "fixtures" name
let ppckpt01 = fixture "ppckpt01.ppck"
let ppstor01 = fixture "ppstor01.ppck"
let ppstor02 = fixture "ppstor02.ppck"
let pptrc01 = fixture "pptrc01.pptrc"

let tmp_counter = ref 0

let tmpdir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppfmt-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  Unix.mkdir dir 0o755;
  dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let append_file path s =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* a fresh directory holding a copy of [src] under [name] *)
let copy_in src ~name =
  let dir = tmpdir () in
  let path = Filename.concat dir name in
  write_file path (read_file src);
  (dir, path)

(* --- the operations that wrote the fixtures ------------------------------ *)

let write_ppckpt01 ~dir =
  let j = Checkpoint.open_ ~dir ~resume:false in
  Checkpoint.store j ~key:"sq\x002" 4;
  Checkpoint.store j ~key:"sq\x003" 9;
  Checkpoint.store j ~key:"name\x00a" "alpha";
  Checkpoint.close j;
  Filename.concat dir Checkpoint.journal_name

let dead_value = Marshal.to_string 99 []
let torn_record = Store.encode_record ~ns:"model" ~key:"c" ~value:(Marshal.to_string 4 [])

let write_ppstor01 ~dir =
  let s = Store.open_ ~dir in
  Store.add s ~ns:"model" ~key:"a" 1;
  Store.add s ~ns:"model" ~key:"b" "two";
  Store.add s ~ns:"curve" ~key:"a" 3;
  let path = Store.path s in
  Store.close s;
  (* a dead rewrite of model/a, then a record cut 3 bytes short *)
  append_file path (Store.encode_record ~ns:"model" ~key:"a" ~value:dead_value);
  append_file path (String.sub torn_record 0 (String.length torn_record - 3));
  path

let write_ppstor02 ~dir =
  let s = Store.open_ ~dir in
  Store.add s ~ns:"model" ~key:"b" "two";
  Store.add s ~ns:"model" ~key:"a" 1;
  ignore (Store.compact s);
  (* a compacted segment stays append-able *)
  Store.add s ~ns:"model" ~key:"z" 26;
  let path = Store.path s in
  Store.close s;
  path

let trace_entries =
  Array.init 10 (fun i ->
      { Trace.addr = (64 * (i * 7 mod 5)) + (if i = 9 then 1 lsl 40 else 0); write = i mod 3 = 0 })

let write_pptrc01 ~dir =
  let path = Filename.concat dir "trace.pptrc" in
  let i = ref 0 in
  Stream.write_file ~path ~name:"fixture" ~chunk_size:4
    ~next:(fun () ->
      let e = trace_entries.(!i) in
      incr i;
      e)
    ~n:(Array.length trace_entries) ();
  path

(* the same recording through the unknown-length path *)
let record_pptrc01 ~dir =
  let path = Filename.concat dir "recorded.pptrc" in
  let stream =
    Stream.of_trace ~chunk_size:4 ~name:"fixture" (Trace.of_entries trace_entries)
  in
  Alcotest.(check int) "recorded count" 10 (Stream.record_stream ~path stream);
  path

(* --- replaying the fixtures ---------------------------------------------- *)

let test_ppckpt01 () =
  let dir, path = copy_in ppckpt01 ~name:Checkpoint.journal_name in
  let j = Checkpoint.open_ ~dir ~resume:true in
  Alcotest.(check int) "replayed" 3 (Checkpoint.replayed j);
  Alcotest.(check int) "entries" 3 (Checkpoint.entries j);
  Alcotest.(check bool) "clean tail" false (Checkpoint.dropped_tail j);
  Alcotest.(check (option int)) "sq 2" (Some 4) (Checkpoint.lookup j ~key:"sq\x002");
  Alcotest.(check (option int)) "sq 3" (Some 9) (Checkpoint.lookup j ~key:"sq\x003");
  Alcotest.(check (option string)) "name a" (Some "alpha")
    (Checkpoint.lookup j ~key:"name\x00a");
  Alcotest.(check bool) "absent key" false (Checkpoint.mem j ~key:"sq\x004");
  Checkpoint.close j;
  Alcotest.(check string) "replay leaves the bytes alone" (read_file ppckpt01)
    (read_file path)

let record_len ~ns ~key v = String.length (Store.encode_record ~ns ~key ~value:v)

let test_ppstor01 () =
  let dir, path = copy_in ppstor01 ~name:Store.store_name in
  let s = Store.open_ ~dir in
  Alcotest.(check int) "replayed" 3 (Store.replayed s);
  Alcotest.(check int) "entries" 3 (Store.entries s);
  Alcotest.(check int) "dead records" 1 (Store.dead_records s);
  Alcotest.(check int) "dead bytes"
    (record_len ~ns:"model" ~key:"a" dead_value)
    (Store.dead_bytes s);
  Alcotest.(check int) "live bytes"
    (record_len ~ns:"model" ~key:"a" (Marshal.to_string 1 [])
    + record_len ~ns:"model" ~key:"b" (Marshal.to_string "two" [])
    + record_len ~ns:"curve" ~key:"a" (Marshal.to_string 3 []))
    (Store.live_bytes s);
  Alcotest.(check bool) "torn tail dropped" true (Store.dropped_tail s);
  Alcotest.(check int) "segment version" 1 (Store.segment_version s);
  Alcotest.(check (list string)) "model keys" [ "a"; "b" ] (Store.keys s ~ns:"model");
  Alcotest.(check (list string)) "curve keys" [ "a" ] (Store.keys s ~ns:"curve");
  Alcotest.(check (option int)) "first write wins" (Some 1)
    (Store.lookup s ~ns:"model" ~key:"a");
  Alcotest.(check (option string)) "model b" (Some "two")
    (Store.lookup s ~ns:"model" ~key:"b");
  Alcotest.(check (option int)) "curve a" (Some 3) (Store.lookup s ~ns:"curve" ~key:"a");
  Alcotest.(check bool) "torn record never served" false
    (Store.mem s ~ns:"model" ~key:"c");
  Store.close s;
  let whole = read_file ppstor01 in
  let cut = String.length whole - (String.length torn_record - 3) in
  Alcotest.(check string) "open truncated exactly the torn tail"
    (String.sub whole 0 cut) (read_file path)

let test_ppstor02 () =
  let dir, path = copy_in ppstor02 ~name:Store.store_name in
  let s = Store.open_ ~dir in
  Alcotest.(check int) "replayed" 3 (Store.replayed s);
  Alcotest.(check int) "dead records" 0 (Store.dead_records s);
  Alcotest.(check bool) "clean tail" false (Store.dropped_tail s);
  Alcotest.(check int) "segment version" 2 (Store.segment_version s);
  Alcotest.(check (list string)) "model keys" [ "a"; "b"; "z" ] (Store.keys s ~ns:"model");
  Alcotest.(check (option int)) "model a" (Some 1) (Store.lookup s ~ns:"model" ~key:"a");
  Alcotest.(check (option string)) "model b" (Some "two")
    (Store.lookup s ~ns:"model" ~key:"b");
  Alcotest.(check (option int)) "appended after compaction" (Some 26)
    (Store.lookup s ~ns:"model" ~key:"z");
  Store.close s;
  Alcotest.(check string) "replay leaves the bytes alone" (read_file ppstor02)
    (read_file path)

let test_pptrc01 () =
  let _, path = copy_in pptrc01 ~name:"trace.pptrc" in
  let info = Stream.file_info path in
  Alcotest.(check string) "name" "fixture" info.Stream.fi_name;
  Alcotest.(check int) "total" 10 info.Stream.fi_total;
  Alcotest.(check int) "chunk" 4 info.Stream.fi_chunk_size;
  Alcotest.(check int) "chunks" 3 info.Stream.fi_chunks;
  Alcotest.(check int) "entries" 10 info.Stream.fi_entries;
  Alcotest.(check bool) "clean tail" false info.Stream.fi_dropped_tail;
  let got = ref [] in
  let n = Stream.iter (Stream.of_file ~chunk_size:3 path) (fun e -> got := e :: !got) in
  Alcotest.(check int) "streamed" 10 n;
  Alcotest.(check bool) "entries decode exactly" true
    (Array.of_list (List.rev !got) = trace_entries)

let test_writers_reproduce_fixtures () =
  let same label fixture path =
    Alcotest.(check string) label (read_file fixture) (read_file path)
  in
  same "PPCKPT01" ppckpt01 (write_ppckpt01 ~dir:(tmpdir ()));
  same "PPSTOR01" ppstor01 (write_ppstor01 ~dir:(tmpdir ()));
  same "PPSTOR02" ppstor02 (write_ppstor02 ~dir:(tmpdir ()));
  same "PPTRC01 write_file" pptrc01 (write_pptrc01 ~dir:(tmpdir ()));
  same "PPTRC01 record_stream" pptrc01 (record_pptrc01 ~dir:(tmpdir ()))

let suite =
  [
    Alcotest.test_case "PPCKPT01 fixture replays exactly" `Quick test_ppckpt01;
    Alcotest.test_case "PPSTOR01 fixture: dead duplicate and torn tail" `Quick
      test_ppstor01;
    Alcotest.test_case "PPSTOR02 fixture replays exactly" `Quick test_ppstor02;
    Alcotest.test_case "PPTRC01 fixture decodes exactly" `Quick test_pptrc01;
    Alcotest.test_case "writers reproduce the fixtures byte for byte" `Quick
      test_writers_reproduce_fixtures;
  ]
