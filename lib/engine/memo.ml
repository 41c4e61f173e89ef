type 'v entry = Done of 'v | Pending

type 'v t = {
  name : string;
  table : (string, 'v entry) Hashtbl.t;
  lock : Mutex.t;
  settled : Condition.t;
}

let create ~name ?(size = 64) () =
  {
    name;
    table = Hashtbl.create size;
    lock = Mutex.create ();
    settled = Condition.create ();
  }

let name t = t.name

let find_or_compute t key f =
  Mutex.lock t.lock;
  let rec await () =
    match Hashtbl.find_opt t.table key with
    | Some (Done v) ->
      Mutex.unlock t.lock;
      Trace.cache_hit t.name;
      v
    | Some Pending ->
      (* another domain is already computing this key: wait for it
         rather than duplicating the work *)
      Condition.wait t.settled t.lock;
      await ()
    | None ->
      Hashtbl.replace t.table key Pending;
      Mutex.unlock t.lock;
      Trace.cache_miss t.name;
      (match f () with
      | v ->
        Mutex.lock t.lock;
        Hashtbl.replace t.table key (Done v);
        Condition.broadcast t.settled;
        Mutex.unlock t.lock;
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (* drop the pending marker so a waiter can retry the compute *)
        Mutex.lock t.lock;
        Hashtbl.remove t.table key;
        Condition.broadcast t.settled;
        Mutex.unlock t.lock;
        Printexc.raise_with_backtrace e bt)
  in
  await ()

let mem t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key with Some (Done _) -> true | Some Pending | None -> false)

let clear t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.table)

let length t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun _ entry n -> match entry with Done _ -> n + 1 | Pending -> n)
        t.table 0)

let stats t = Trace.cache_stats t.name
