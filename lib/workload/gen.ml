module Rng = Nmcache_numerics.Rng

type t = {
  name : string;
  next : unit -> Access.t;
}

let make ~name next = { name; next }
let name t = t.name
let next t = t.next ()

let take t n =
  if n < 0 then invalid_arg "Gen.take: n < 0";
  Array.init n (fun _ -> t.next ())

let iter t n f =
  for _ = 1 to n do
    f (t.next ())
  done

let fill t chunk len =
  if len > Array.length chunk then invalid_arg "Gen.fill: len exceeds the chunk";
  for i = 0 to len - 1 do
    let a = t.next () in
    chunk.(i) <- (a.Access.addr lsl 1) lor if a.Access.write then 1 else 0
  done

let mix ~name ~rng parts =
  if parts = [] then invalid_arg "Gen.mix: empty";
  List.iter (fun (w, _) -> if w <= 0.0 then invalid_arg "Gen.mix: non-positive weight") parts;
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 parts in
  let parts = Array.of_list parts in
  let pick () =
    let u = Rng.float rng *. total in
    let rec go i acc =
      if i >= Array.length parts - 1 then snd parts.(Array.length parts - 1)
      else begin
        let w, g = parts.(i) in
        if u < acc +. w then g else go (i + 1) (acc +. w)
      end
    in
    go 0 0.0
  in
  make ~name (fun () -> next (pick ()))

let with_write_fraction ~rng ~p t =
  let p = Float.min 1.0 (Float.max 0.0 p) in
  make ~name:t.name (fun () ->
      let a = t.next () in
      { a with Access.write = Rng.bernoulli rng ~p })

let sequential ?(start = 0) ?(stride = 64) ~name () =
  let cursor = ref start in
  make ~name (fun () ->
      let a = Access.read !cursor in
      cursor := !cursor + stride;
      a)

let cyclic ?(start = 0) ?(stride = 64) ~name ~length () =
  if length <= 0 then invalid_arg "Gen.cyclic: length <= 0";
  let i = ref 0 in
  make ~name (fun () ->
      let a = Access.read (start + (!i * stride)) in
      i := (!i + 1) mod length;
      a)

let uniform_random ?(base = 0) ~name ~rng ~footprint () =
  if footprint <= 8 then invalid_arg "Gen.uniform_random: footprint too small";
  let words = footprint / 8 in
  make ~name (fun () -> Access.read (base + (8 * Rng.int rng ~bound:words)))
