(* Chunked streaming traces.

   The design constraint is byte-identity: for every chunk size, a
   streamed computation must produce results bitwise-equal to the same
   computation over a materialised [Trace.t].  Chunking therefore only
   decides *when* the engine seams fire (deadline polls, progress
   events, checkpoint slots) — never *what* the consumer observes.
   The test suite and the [oracle.stream] verify group enforce this
   across chunk sizes {1, 7, 4096, whole} and [--jobs] settings.

   Memory is O(chunk): a chunk buffer plus whatever the consumer
   carries.  The PPTRC01 reader additionally holds one decoded on-disk
   record, so a file recorded at a huge chunk grain costs that grain —
   recording and streaming grains are otherwise independent. *)

module Engine = Nmcache_engine

let default_chunk_size = 65536
let magic = "PPTRC01\x00"

(* ---- PPTRC01 codec --------------------------------------------------- *)

(* Per entry, one LEB128 varint of [zigzag(addr - prev) * 2 + write].
   [prev] resets to 0 at each record boundary so records decode
   independently (a dropped tail never poisons earlier records). *)

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag v = (v lsr 1) lxor (- (v land 1))

(* returns the entry's address: the caller threads it as [prev] *)
let encode_entry buf prev (e : Trace.entry) =
  let z = zigzag (e.addr - prev) in
  let v = ref ((z lsl 1) lor (if e.write then 1 else 0)) in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done;
  e.addr

(* Reusable decode scratch: a record's payload bytes land in
   [payload] and decode into [addrs]/[writes]; each grows to the
   largest record seen and is reused for every record after it, so
   reading a recording allocates nothing per record. *)
type reader = {
  mutable payload : Bytes.t;
  mutable addrs : int array;
  mutable writes : Bytes.t;  (* '\001' = write *)
}

let reader () = { payload = Bytes.empty; addrs = [||]; writes = Bytes.empty }

(* Decode [count] entries from [r.payload.[0 .. plen)] into [r.addrs] /
   [r.writes].  [false] on any overrun/garbage: the caller treats the
   record as a corrupt tail, mirroring a CRC mismatch. *)
let decode_record r ~count ~plen =
  if Array.length r.addrs < count then begin
    r.addrs <- Array.make count 0;
    r.writes <- Bytes.create count
  end;
  let payload = r.payload and addrs = r.addrs and writes = r.writes in
  let pos = ref 0 and prev = ref 0 in
  match
    for i = 0 to count - 1 do
      let v = ref 0 and shift = ref 0 and continue = ref true in
      while !continue do
        if !pos >= plen || !shift > 62 then raise Exit;
        let b = Char.code (Bytes.get payload !pos) in
        incr pos;
        v := !v lor ((b land 0x7f) lsl !shift);
        shift := !shift + 7;
        continue := b land 0x80 <> 0
      done;
      let addr = !prev + unzigzag (!v lsr 1) in
      prev := addr;
      addrs.(i) <- addr;
      Bytes.set writes i (if !v land 1 = 1 then '\001' else '\000')
    done
  with
  | () -> !pos = plen
  | exception Exit -> false

(* PPTRC01 framing: u32le words and CRC-32 from {!Engine.Journal}.  The
   header and every chunk payload travel as a CRC-guarded blob
   [len][bytes][crc(bytes)]; a chunk record prefixes its blob with the
   entry count. *)
let output_blob oc s =
  Engine.Journal.output_u32 oc (String.length s);
  output_string oc s;
  Engine.Journal.output_u32 oc (Engine.Journal.crc s)

(* [None] when the blob is over-long or fails its CRC; raises
   [End_of_file] when the stream ends inside it *)
let input_blob ic ~max_len =
  let len = Engine.Journal.input_u32 ic in
  if len > max_len then None
  else
    let s = really_input_string ic len in
    if Engine.Journal.input_u32 ic <> Engine.Journal.crc s then None else Some s

type file_header = {
  fh_name : string;
  fh_total : int;
  fh_chunk : int;
}

let max_header_bytes = 1 lsl 20
let max_payload_bytes = 1 lsl 30

let output_header oc ~name ~total ~chunk =
  output_string oc magic;
  output_blob oc
    (Engine.Json.to_string
       (Engine.Json.Obj
          [
            ("name", Engine.Json.String name);
            ("total", Engine.Json.Int total);
            ("chunk", Engine.Json.Int chunk);
          ]))

(* Foreign or corrupt headers are a *usage* error (wrong file), not a
   torn tail, so they raise [Invalid_argument] like other bad inputs. *)
let read_header ic ~path =
  let fail why = invalid_arg (Printf.sprintf "%s: %s" path why) in
  match
    if really_input_string ic (String.length magic) <> magic then `Foreign
    else
      match input_blob ic ~max_len:max_header_bytes with
      | None -> `Corrupt
      | Some hdr -> (
        match Engine.Json.parse hdr with
        | Error _ -> `Corrupt
        | Ok j -> (
          let field name conv = Option.bind (Engine.Json.member name j) conv in
          match
            ( field "name" Engine.Json.to_str,
              field "total" Engine.Json.to_int,
              field "chunk" Engine.Json.to_int )
          with
          | Some fh_name, Some fh_total, Some fh_chunk when fh_total >= 0 && fh_chunk >= 1
            ->
            `Header { fh_name; fh_total; fh_chunk }
          | _ -> `Corrupt))
  with
  | `Header h -> h
  | `Foreign -> fail "not a PPTRC01 trace file"
  | `Corrupt -> fail "corrupt PPTRC01 header"
  | exception End_of_file -> fail "not a PPTRC01 trace file (truncated header)"

exception Corrupt_tail

(* one chunk record [count][plen][payload][crc(payload)] holding
   [entry 0 .. entry (count - 1)], encoded through the scratch [buf] *)
let output_chunk oc buf ~count entry =
  Buffer.clear buf;
  let prev = ref 0 in
  for i = 0 to count - 1 do
    prev := encode_entry buf !prev (entry i)
  done;
  Engine.Journal.output_u32 oc count;
  output_blob oc (Buffer.contents buf)

(* Read and validate the next chunk record into [r], returning its
   entry count: [None] at a clean end-of-file (a record boundary);
   [Corrupt_tail] on anything torn — a partial word, short payload, CRC
   mismatch or undecodable payload — so a bad record is dropped whole. *)
let read_record ic r =
  let start = pos_in ic in
  match Engine.Journal.input_u32 ic with
  | exception End_of_file -> if pos_in ic = start then None else raise Corrupt_tail
  | count -> (
    match
      let plen = Engine.Journal.input_u32 ic in
      if plen > max_payload_bytes || count > plen + 1 then raise Corrupt_tail;
      if Bytes.length r.payload < plen then r.payload <- Bytes.create plen;
      really_input ic r.payload 0 plen;
      if Engine.Journal.input_u32 ic <> Engine.Journal.crc_sub r.payload 0 plen then
        raise Corrupt_tail;
      if not (decode_record r ~count ~plen) then raise Corrupt_tail
    with
    | () -> Some count
    | exception End_of_file -> raise Corrupt_tail)

let chunk_buffer chunk_size = Buffer.create (min (4 * chunk_size) (1 lsl 22))

let write_file ~path ~name ?(chunk_size = default_chunk_size) ~next ~n () =
  if n < 0 then invalid_arg "Stream_trace.write_file: n < 0";
  if chunk_size < 1 then invalid_arg "Stream_trace.write_file: chunk_size < 1";
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_header oc ~name ~total:n ~chunk:chunk_size;
      let buf = chunk_buffer chunk_size in
      let written = ref 0 in
      while !written < n do
        let count = min chunk_size (n - !written) in
        output_chunk oc buf ~count (fun _ -> next ());
        written := !written + count
      done)

type file_info = {
  fi_name : string;
  fi_total : int;
  fi_chunk_size : int;
  fi_chunks : int;
  fi_entries : int;
  fi_dropped_tail : bool;
}

let file_info path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fh = read_header ic ~path in
      (* [read_record] decodes too: [fi_entries] must be exactly what
         streaming yields, and streaming drops undecodable records *)
      let r = reader () in
      let chunks = ref 0 and entries = ref 0 in
      let dropped = ref false and stop = ref false in
      while not !stop do
        match read_record ic r with
        | None -> stop := true
        | exception Corrupt_tail ->
          dropped := true;
          stop := true
        | Some count ->
          incr chunks;
          entries := !entries + count
      done;
      if !dropped then Engine.Metrics.incr "stream.dropped_tail";
      {
        fi_name = fh.fh_name;
        fi_total = fh.fh_total;
        fi_chunk_size = fh.fh_chunk;
        fi_chunks = !chunks;
        fi_entries = !entries;
        fi_dropped_tail = !dropped;
      })

(* ---- sources --------------------------------------------------------- *)

type source =
  | Producer of {
      p_name : string;
      p_n : int;
      p_make : unit -> unit -> Trace.entry;
    }
  | Trace_src of { t_name : string; t_trace : Trace.t }
  | File of { f_path : string; f_header : file_header }
  | Fd of { d_name : string; d_fd : Unix.file_descr }

type t = {
  source : source;
  chunk_size : int;
  skey : string option;
}

let check_chunk_size cs =
  if cs < 1 then invalid_arg "Stream_trace: chunk_size < 1"

let of_producer ?(chunk_size = default_chunk_size) ?key ~name ~n make =
  check_chunk_size chunk_size;
  if n < 0 then invalid_arg "Stream_trace.of_producer: n < 0";
  {
    source = Producer { p_name = name; p_n = n; p_make = make };
    chunk_size;
    skey = key;
  }

let of_trace ?(chunk_size = default_chunk_size) ?key ~name trace =
  check_chunk_size chunk_size;
  { source = Trace_src { t_name = name; t_trace = trace }; chunk_size; skey = key }

let of_file ?(chunk_size = default_chunk_size) ?key path =
  check_chunk_size chunk_size;
  let ic = open_in_bin path in
  let header =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> read_header ic ~path)
  in
  let skey =
    match key with
    | Some _ -> key
    | None ->
      (* the stream's checkpoint identity: the recording plus the
         streaming grain (slots are per-chunk, so the grain is an
         input) *)
      Some
        (Printf.sprintf "pptrc:%s:%d:%d" header.fh_name header.fh_total
           chunk_size)
  in
  { source = File { f_path = path; f_header = header }; chunk_size; skey }

let of_ndjson_fd ?(chunk_size = default_chunk_size) ~name fd =
  check_chunk_size chunk_size;
  (* a pipe cannot be re-read, so the stream never gets a checkpoint
     identity: resumable folds degrade to plain folds *)
  { source = Fd { d_name = name; d_fd = fd }; chunk_size; skey = None }

let name t =
  match t.source with
  | Producer { p_name; _ } -> p_name
  | Trace_src { t_name; _ } -> t_name
  | File { f_header; _ } -> f_header.fh_name
  | Fd { d_name; _ } -> d_name

let chunk_size t = t.chunk_size
let key t = t.skey

let declared_length t =
  match t.source with
  | Producer { p_n; _ } -> Some p_n
  | Trace_src { t_trace; _ } -> Some (Trace.length t_trace)
  | File { f_header; _ } -> Some f_header.fh_total
  | Fd _ -> None

(* ---- feeds ----------------------------------------------------------- *)

(* A feed is a block-wise source plus its cleanup: [fill dst off len]
   writes up to [len] entries at [dst.(off)] onward and returns how many
   it wrote — 0 only once the stream is exhausted; [close] releases
   whatever backs it. *)

let file_feed path =
  let ic = open_in_bin path in
  let () =
    match read_header ic ~path with
    | _ -> ()
    | exception e ->
      close_in_noerr ic;
      raise e
  in
  let r = reader () in
  (* entries [pos, count) of the current record are still to serve *)
  let count = ref 0 and pos = ref 0 in
  let finished = ref false in
  let rec fill dst off len =
    if !pos < !count then begin
      let k = min len (!count - !pos) in
      let p = !pos in
      for j = 0 to k - 1 do
        dst.(off + j) <-
          { Trace.addr = r.addrs.(p + j); write = Bytes.get r.writes (p + j) = '\001' }
      done;
      pos := p + k;
      k
    end
    else if !finished then 0
    else
      match read_record ic r with
      | None ->
        finished := true;
        0
      | exception Corrupt_tail ->
        Engine.Metrics.incr "stream.dropped_tail";
        finished := true;
        0
      | Some n ->
        count := n;
        pos := 0;
        fill dst off len
  in
  (fill, fun () -> close_in_noerr ic)

let ndjson_feed ~name fd =
  let reader = Engine.Server.make_reader fd in
  let line_no = ref 0 in
  let fail line_no why =
    invalid_arg
      (Printf.sprintf "Stream_trace %s: NDJSON line %d: %s" name line_no why)
  in
  let rec next () =
    match Engine.Server.read_line reader with
    | Engine.Server.Eof | Engine.Server.Drained -> None
    | Engine.Server.Overlong ->
      fail (!line_no + 1)
        (Printf.sprintf "line exceeds %d bytes" Engine.Server.max_line_bytes)
    | Engine.Server.Line line -> (
      incr line_no;
      if String.trim line = "" then next ()
      else
        match Engine.Json.parse line with
        | Error msg -> fail !line_no msg
        | Ok j -> (
          let addr = Option.bind (Engine.Json.member "addr" j) Engine.Json.to_int in
          let write =
            match Engine.Json.member "write" j with
            | Some (Engine.Json.Bool b) -> b
            | Some _ -> fail !line_no "\"write\" must be a boolean"
            | None -> false
          in
          match addr with
          | Some a when a >= 0 -> Some { Trace.addr = a; write }
          | Some _ -> fail !line_no "negative \"addr\""
          | None -> fail !line_no "missing or non-integer \"addr\""))
  in
  (* the reader is never pulled again once it has reported the end *)
  let finished = ref false in
  let fill dst off len =
    let rec go k =
      if k >= len || !finished then k
      else
        match next () with
        | None ->
          finished := true;
          k
        | Some e ->
          dst.(off + k) <- e;
          go (k + 1)
    in
    go 0
  in
  (fill, fun () -> ())

let feed_of t =
  match t.source with
  | Producer { p_n; p_make; _ } ->
    let produce = p_make () in
    let left = ref p_n in
    let fill dst off len =
      let k = min len !left in
      for j = 0 to k - 1 do
        dst.(off + j) <- produce ()
      done;
      left := !left - k;
      k
    in
    (fill, fun () -> ())
  | Trace_src { t_trace; _ } ->
    let i = ref 0 in
    let fill dst off len =
      let k = min len (Trace.length t_trace - !i) in
      for j = 0 to k - 1 do
        dst.(off + j) <- Trace.get t_trace (!i + j)
      done;
      i := !i + k;
      k
    in
    (fill, fun () -> ())
  | File { f_path; _ } -> file_feed f_path
  | Fd { d_name; d_fd } -> ndjson_feed ~name:d_name d_fd

(* ---- folding --------------------------------------------------------- *)

let dummy_entry = { Trace.addr = 0; write = false }

(* A chunk buffer starts at what the source declares is left, so the
   common case fills one exact-size array; a source that declares
   nothing, or runs past its declaration, grows it geometrically, and
   one that falls short is trimmed.  The cap keeps a whole-trace chunk
   size over a truncated recording from preallocating the declared
   total. *)
let max_initial_chunk = 1 lsl 20

let fold_chunks t ~init ~f =
  let fill, close = feed_of t in
  Fun.protect ~finally:close (fun () ->
      let cs = t.chunk_size in
      let declared = declared_length t in
      let stream_name = name t in
      let acc = ref init in
      let index = ref 0 in
      let consumed = ref 0 in
      let stop = ref false in
      while not !stop do
        let hint =
          match declared with
          | Some n -> min max_initial_chunk (max 1 (n - !consumed))
          | None -> 4096
        in
        let buf = ref (Array.make (min cs hint) dummy_entry) in
        let len = ref 0 in
        while !len < cs && not !stop do
          if !len = Array.length !buf then begin
            let bigger = Array.make (min cs (2 * !len)) dummy_entry in
            Array.blit !buf 0 bigger 0 !len;
            buf := bigger
          end;
          let k = fill !buf !len (Array.length !buf - !len) in
          if k = 0 then stop := true else len := !len + k
        done;
        if !len > 0 then begin
          Engine.Deadline.poll ~stage:"cachesim.stream";
          let entries =
            if !len = Array.length !buf then !buf else Array.sub !buf 0 !len
          in
          acc := f !acc ~index:!index entries;
          Engine.Metrics.incr "stream.chunks";
          Engine.Metrics.incr ~by:!len "stream.entries";
          if Engine.Events.enabled () then
            Engine.Events.emit
              (Engine.Events.Chunk_done
                 { stream = stream_name; index = !index; entries = !len });
          consumed := !consumed + !len;
          incr index
        end
      done;
      !acc)

(* Slot states are marshalled folds over caches, hierarchies and
   analyzers, and [Marshal.from_string] trusts the bytes' type.  Bump
   this tag whenever the in-memory layout of any type a slot state may
   carry changes ([Cache.t] and its [Rng.t], [Hierarchy.t],
   [Trace.analyzer]), so a journal written by an older binary misses
   instead of being unmarshalled at the wrong type.  Layout 2: the
   [Rng.t] state became a [Bytes.t], the analyzer an [Intmap]. *)
let state_layout = "layout2"

let slot_key ~skey ~salt index =
  (* pseudo-task namespace "stream": no Sweep task carries that name,
     so slots can never collide with sweep results in a shared journal *)
  Printf.sprintf "stream\x00%s\x00%s\x00%s:chunk:%d" state_layout skey salt index

let resumable_fold ?(salt = "") t ~init ~f =
  match (Engine.Checkpoint.active (), t.skey) with
  | Some journal, Some skey ->
    fold_chunks t ~init ~f:(fun acc ~index entries ->
        let key = slot_key ~skey ~salt index in
        match Engine.Checkpoint.lookup journal ~key with
        | Some state -> state
        | None ->
          let state = f acc ~index entries in
          Engine.Checkpoint.store journal ~key state;
          state)
  | _ -> fold_chunks t ~init ~f

let iter t g =
  fold_chunks t ~init:0 ~f:(fun n ~index:_ entries ->
      Array.iter g entries;
      n + Array.length entries)

(* ---- drivers --------------------------------------------------------- *)

let analyze t =
  let a = Trace.analyzer () in
  let (_ : int) = iter t (Trace.feed_analyzer a) in
  Trace.analyzer_stats a

(* Checkpoint salts must name every consumer-side input, so two
   replays of one stream through different geometries never serve each
   other's slots. *)
let policy_salt = function
  | Replacement.Random seed -> Printf.sprintf "random%d" seed
  | p -> Replacement.name p

let cache_salt c =
  Printf.sprintf "%d:%d:%d:%s" (Cache.size_bytes c) (Cache.assoc c)
    (Cache.block_bytes c)
    (policy_salt (Cache.policy c))

let replay t cache =
  let salt = "replay:" ^ cache_salt cache in
  resumable_fold ~salt t ~init:(cache, 0) ~f:(fun (c, n) ~index:_ entries ->
      Array.iter
        (fun (e : Trace.entry) -> ignore (Cache.access c e.addr ~write:e.write))
        entries;
      (c, n + Array.length entries))

let replay_hierarchy t h =
  let salt =
    Printf.sprintf "hier:%s:%s" (cache_salt (Hierarchy.l1 h))
      (cache_salt (Hierarchy.l2 h))
  in
  resumable_fold ~salt t ~init:(h, 0) ~f:(fun (h, n) ~index:_ entries ->
      Array.iter
        (fun (e : Trace.entry) ->
          ignore (Hierarchy.access h e.addr ~write:e.write))
        entries;
      (h, n + Array.length entries))

(* --- recording a stream of unknown length ---------------------------- *)

(* [write_file] needs [n] up front (the header declares the total), but
   a piped NDJSON source only learns its length at EOF.  Spool the
   encoded chunk records to a side file while counting, then assemble
   magic + header(total) + spooled records and commit with an atomic
   rename — O(chunk) memory, and no half-written file ever sits at
   [path]. *)
let record_stream ~path t =
  let spool = path ^ ".spool" in
  let cleanup f = try Sys.remove f with Sys_error _ -> () in
  match
    let oc = open_out_bin spool in
    let total =
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let buf = chunk_buffer (chunk_size t) in
          fold_chunks t ~init:0 ~f:(fun acc ~index:_ entries ->
              let count = Array.length entries in
              output_chunk oc buf ~count (Array.get entries);
              acc + count))
    in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_header oc ~name:(name t) ~total ~chunk:(chunk_size t);
        let ic = open_in_bin spool in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let block = Bytes.create 65536 in
            let rec copy () =
              let n = input ic block 0 (Bytes.length block) in
              if n > 0 then begin
                output oc block 0 n;
                copy ()
              end
            in
            copy ()));
    Sys.rename tmp path;
    cleanup spool;
    total
  with
  | total -> total
  | exception e ->
    cleanup spool;
    cleanup (path ^ ".tmp");
    raise e
