open Mdsp_util

type t = {
  exec : Exec.t;
  n_replicas : int;
  slot_of_replica : int array;
  replicas_of_slot : int array array;
  steps : int array;
  wall_s : float array;
  mutable strides : int;
}

let create ~exec ~n_replicas =
  if n_replicas < 1 then
    invalid_arg "Shard.create: need at least one replica";
  let slots = Exec.n_slots exec in
  let slot_of_replica = Array.init n_replicas (fun r -> r mod slots) in
  let replicas_of_slot =
    Array.init slots (fun s ->
        List.init n_replicas Fun.id
        |> List.filter (fun r -> slot_of_replica.(r) = s)
        |> Array.of_list)
  in
  {
    exec;
    n_replicas;
    slot_of_replica;
    replicas_of_slot;
    steps = Array.make n_replicas 0;
    wall_s = Array.make n_replicas 0.;
    strides = 0;
  }

let n_replicas t = t.n_replicas
let n_slots t = Exec.n_slots t.exec
let slot_of_replica t r = t.slot_of_replica.(r)
let replicas_of_slot t s = Array.copy t.replicas_of_slot.(s)

let run_stride t f =
  ignore
    (Exec.map_slots t.exec (fun s ->
         Array.iter
           (fun r ->
             let t0 = Timer.now () in
             let advanced = f r in
             t.wall_s.(r) <- t.wall_s.(r) +. Timer.since t0;
             t.steps.(r) <- t.steps.(r) + advanced)
           t.replicas_of_slot.(s)));
  t.strides <- t.strides + 1

let strides_done t = t.strides
let steps_done t = Array.copy t.steps
let wall_seconds t = Array.copy t.wall_s
