(* Subtracting the origin in int64 keeps nanosecond resolution in the float
   result regardless of how long the host has been up. *)
let origin = Monotonic_clock.now ()
let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9
let since t0 = now () -. t0

type entry = { name : string; mutable secs : float; mutable n : int }

(* Entries grouped by root name; both lists are newest-first. *)
type group = { root : string; mutable members : entry list }

type table = {
  index : (string, entry) Hashtbl.t;
  mutable groups : group list;
  mutable ticks : int;
}

let table () = { index = Hashtbl.create 16; groups = []; ticks = 0 }

let root name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let entry tbl name =
  match Hashtbl.find_opt tbl.index name with
  | Some e -> e
  | None ->
      let e = { name; secs = 0.; n = 0 } in
      Hashtbl.add tbl.index name e;
      let r = root name in
      (match List.find_opt (fun g -> g.root = r) tbl.groups with
      | Some g -> g.members <- e :: g.members
      | None -> tbl.groups <- { root = r; members = [ e ] } :: tbl.groups);
      e

let charge tbl name s =
  let e = entry tbl name in
  e.secs <- e.secs +. s;
  e.n <- e.n + 1

(* The entry is registered before [f] runs, so a parent span lists ahead of
   the children recorded inside it. *)
let span tbl name f =
  let e = entry tbl name in
  let t0 = now () in
  let r = f () in
  e.secs <- e.secs +. since t0;
  e.n <- e.n + 1;
  r

let tick tbl = tbl.ticks <- tbl.ticks + 1
let ticks tbl = tbl.ticks

let per_tick tbl x =
  if tbl.ticks = 0 then 0. else x /. float_of_int tbl.ticks

let find tbl name = Hashtbl.find_opt tbl.index name

let seconds tbl name =
  match find tbl name with Some e -> e.secs | None -> 0.

let calls tbl name = match find tbl name with Some e -> e.n | None -> 0

let entries tbl =
  List.concat_map
    (fun g -> List.rev_map (fun e -> (e.name, e.secs)) g.members)
    (List.rev tbl.groups)

let total tbl =
  List.fold_left
    (fun acc g -> acc +. seconds tbl g.root)
    0. (List.rev tbl.groups)

let reset tbl =
  Hashtbl.iter
    (fun _ e ->
      e.secs <- 0.;
      e.n <- 0)
    tbl.index;
  tbl.ticks <- 0
