(* CRC-guarded append-only record journal (see the .mli for the
   contract).  This is the only code that knows the on-disk layout:

     [magic: 8 bytes]
     repeat: [klen:u32le] [key bytes] [vlen:u32le] [value bytes] [crc:u32le]

   where crc is CRC-32 (IEEE 802.3) over key ^ value.  {!Checkpoint}
   and {!Store} choose the magic and the counters; the PPTRC01 trace
   format reuses the u32 framing and the CRC. *)

(* --- CRC-32 (IEEE 802.3), table-driven, dependency-free ------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc_update_sub crc b off len =
  let t = Lazy.force crc_table in
  let c = ref crc in
  for i = off to off + len - 1 do
    c := t.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let crc_update crc s = crc_update_sub crc (Bytes.unsafe_of_string s) 0 (String.length s)
let crc s = crc_update 0xFFFFFFFF s lxor 0xFFFFFFFF
let crc32 s = Int32.of_int (crc s)

let crc_sub b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then invalid_arg "Journal.crc_sub";
  crc_update_sub 0xFFFFFFFF b off len lxor 0xFFFFFFFF

let record_crc ~key ~value = crc_update (crc_update 0xFFFFFFFF key) value lxor 0xFFFFFFFF

(* --- u32le framing --------------------------------------------------- *)

let output_u32 oc v =
  output_byte oc (v land 0xFF);
  output_byte oc ((v lsr 8) land 0xFF);
  output_byte oc ((v lsr 16) land 0xFF);
  output_byte oc ((v lsr 24) land 0xFF)

(* raises [End_of_file] when the channel ends mid-word *)
let input_u32 ic =
  let b0 = input_byte ic in
  let b1 = input_byte ic in
  let b2 = input_byte ic in
  let b3 = input_byte ic in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

(* --- records --------------------------------------------------------- *)

let magic_len = 8
let max_key_len = 1_000_000
let max_value_len = 256_000_000

(* [klen][key][vlen][value][crc] *)
let record_size ~key ~value = 12 + String.length key + String.length value

let encode_record ~key ~value =
  let klen = String.length key and vlen = String.length value in
  let b = Bytes.create (record_size ~key ~value) in
  Bytes.set_int32_le b 0 (Int32.of_int klen);
  Bytes.blit_string key 0 b 4 klen;
  Bytes.set_int32_le b (4 + klen) (Int32.of_int vlen);
  Bytes.blit_string value 0 b (8 + klen) vlen;
  Bytes.set_int32_le b (8 + klen + vlen) (Int32.of_int (record_crc ~key ~value));
  Bytes.unsafe_to_string b

(* --- the journal ----------------------------------------------------- *)

type t = {
  dir : string;
  path : string;
  file_lock : Lockfile.t; (* single-writer guard, released at close *)
  mutable oc : out_channel option;
  lock : Mutex.t;
  table : (string, string) Hashtbl.t; (* key -> value *)
  replayed : int;
  mutable served : int;
  mutable appended : int;
  dropped : bool; (* a corrupt tail was truncated at open *)
  mutable header : string;
  mutable live_bytes : int; (* record bytes (excl. magic) of live records *)
  mutable dead_records : int; (* on-disk duplicates shadowed by an earlier write *)
  mutable dead_bytes : int;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd len)

let open_append path = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

type replay = {
  good_end : int; (* byte offset just past the last good record *)
  live : int;
  dead_n : int;
  dead_b : int;
}

(* Read records until the first truncated, over-long or CRC-mismatching
   one.  First write wins: a duplicate key is a dead record. *)
let replay_channel ic table =
  let live = ref 0 and dead_n = ref 0 and dead_b = ref 0 in
  let good_end = ref magic_len in
  (try
     while true do
       let klen = input_u32 ic in
       if klen < 1 || klen > max_key_len then raise Exit;
       let key = really_input_string ic klen in
       let vlen = input_u32 ic in
       if vlen > max_value_len then raise Exit;
       let value = really_input_string ic vlen in
       if input_u32 ic <> record_crc ~key ~value then raise Exit;
       let size = record_size ~key ~value in
       if Hashtbl.mem table key then begin
         incr dead_n;
         dead_b := !dead_b + size
       end
       else begin
         Hashtbl.replace table key value;
         live := !live + size
       end;
       good_end := pos_in ic
     done
   with End_of_file | Exit -> ());
  { good_end = !good_end; live = !live; dead_n = !dead_n; dead_b = !dead_b }

(* replay [path] if it starts with one of [magics]; [None] when there
   is no file, an empty one or a foreign header *)
let replay_file path ~magics table =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let size = in_channel_length ic in
        let head = if size >= magic_len then really_input_string ic magic_len else "" in
        if List.mem head magics then Some (head, size, replay_channel ic table) else None)
  end

let open_ ~dir ~name ~magics ~resume =
  mkdir_p dir;
  let path = Filename.concat dir name in
  let file_lock = Lockfile.acquire ~path:(path ^ ".lock") in
  let body () =
    (* a leftover .tmp is an interrupted compaction that never reached
       its rename: the old file is authoritative, discard the tmp *)
    (try Sys.remove (path ^ ".tmp") with Sys_error _ -> ());
    let table = Hashtbl.create 256 in
    let replay = if resume then replay_file path ~magics table else None in
    let oc, header, dropped, r =
      match replay with
      | Some (header, size, r) ->
        (* corrupt or torn tail: drop it so appends extend a journal
           whose every byte is known good *)
        let dropped = r.good_end < size in
        if dropped then truncate_file path r.good_end;
        (open_append path, header, dropped, r)
      | None ->
        let header = List.hd magics in
        let oc = open_out_bin path in
        output_string oc header;
        flush oc;
        (oc, header, false, { good_end = magic_len; live = 0; dead_n = 0; dead_b = 0 })
    in
    {
      dir;
      path;
      file_lock;
      oc = Some oc;
      lock = Mutex.create ();
      table;
      replayed = Hashtbl.length table;
      served = 0;
      appended = 0;
      dropped;
      header;
      live_bytes = r.live;
      dead_records = r.dead_n;
      dead_bytes = r.dead_b;
    }
  in
  match body () with
  | t -> t
  | exception e ->
    Lockfile.release file_lock;
    raise e

let close t =
  Mutex.protect t.lock (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        t.oc <- None;
        close_out oc);
  Lockfile.release t.file_lock

let flush t = Mutex.protect t.lock (fun () -> Option.iter Stdlib.flush t.oc)

(* --- access ---------------------------------------------------------- *)

let find t key =
  Mutex.protect t.lock (fun () ->
      let v = Hashtbl.find_opt t.table key in
      if Option.is_some v then t.served <- t.served + 1;
      v)

let mem t key = Mutex.protect t.lock (fun () -> Hashtbl.mem t.table key)

let add t ~key ~value =
  Mutex.protect t.lock (fun () ->
      if Hashtbl.mem t.table key then false
      else begin
        Hashtbl.replace t.table key value;
        match t.oc with
        | None -> false
        | Some oc ->
          output_string oc (encode_record ~key ~value);
          (* flush per record: a crash loses at most the half-written
             tail, which the next open truncates *)
          Stdlib.flush oc;
          t.appended <- t.appended + 1;
          t.live_bytes <- t.live_bytes + record_size ~key ~value;
          true
      end)

let keys t = Mutex.protect t.lock (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.table [])
let entries t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
let dir t = t.dir
let path t = t.path
let replayed t = t.replayed
let served t = Mutex.protect t.lock (fun () -> t.served)
let appended t = Mutex.protect t.lock (fun () -> t.appended)
let dropped_tail t = t.dropped
let header t = Mutex.protect t.lock (fun () -> t.header)
let live_bytes t = Mutex.protect t.lock (fun () -> t.live_bytes)
let dead_records t = Mutex.protect t.lock (fun () -> t.dead_records)
let dead_bytes t = Mutex.protect t.lock (fun () -> t.dead_bytes)
let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let bytes t =
  flush t;
  file_size t.path

(* --- compaction ------------------------------------------------------ *)

type compact_stats = {
  live : int;
  reclaimed_records : int;
  reclaimed_bytes : int;
  before_bytes : int;
  after_bytes : int;
}

(* Crash-ordering argument (also in EXPERIMENTS.md): the old file at
   [t.path] is authoritative until the [Unix.rename] — the single
   atomic commit point.  Every step before it only creates/extends
   [t.path ^ ".tmp"], which the next [open_] discards; the tmp is
   fsynced before the rename, so a crash immediately after it can never
   expose a partially-written file under the real name.  A SIGKILL at
   any [on_step] (or anywhere between) therefore leaves either the
   complete old file or the complete new one. *)
let compact ?(on_step = fun (_ : int) -> ()) t ~magic =
  Mutex.protect t.lock (fun () ->
      (match t.oc with
      | None -> invalid_arg "Journal.compact: journal is closed"
      | Some oc ->
        close_out oc;
        t.oc <- None);
      let before_bytes = file_size t.path in
      on_step 0;
      let tmp = t.path ^ ".tmp" in
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      let toc = Unix.out_channel_of_descr fd in
      output_string toc magic;
      (* deterministic record order: sorted keys *)
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort String.compare in
      let live_bytes = ref 0 in
      List.iteri
        (fun i key ->
          let value = Hashtbl.find t.table key in
          output_string toc (encode_record ~key ~value);
          live_bytes := !live_bytes + record_size ~key ~value;
          on_step (i + 1))
        keys;
      Stdlib.flush toc;
      Unix.fsync fd;
      close_out toc;
      let live = List.length keys in
      on_step (live + 1);
      Unix.rename tmp t.path;
      (* best-effort directory fsync so the rename itself is durable *)
      (match Unix.openfile t.dir [ Unix.O_RDONLY ] 0 with
      | dfd ->
        Fun.protect
          ~finally:(fun () -> Unix.close dfd)
          (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ());
      on_step (live + 2);
      t.oc <- Some (open_append t.path);
      let stats =
        {
          live;
          reclaimed_records = t.dead_records;
          reclaimed_bytes = t.dead_bytes;
          before_bytes;
          after_bytes = file_size t.path;
        }
      in
      t.header <- magic;
      t.dead_records <- 0;
      t.dead_bytes <- 0;
      t.live_bytes <- !live_bytes;
      stats)
