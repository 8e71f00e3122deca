(** Flat (structure-of-arrays) particle store for the hot path.

    The boxed {!State.t} ([Vec3.t array]) stays the engine, checkpoint and
    ensemble representation; this module holds the positions and the force
    accumulator as unboxed [(float, float64_elt, c_layout) Bigarray.Array1.t]
    columns, which the tiled pair/bonded kernels ({!Soa_kernels}) walk
    without allocating. Synchronization with the boxed state is explicit —
    {!sync_load} at a force evaluation's entry, {!sync_store} at its exit —
    and every copy is a plain float move, so the flat forces reach the boxed
    accumulator bit for bit. *)

open Mdsp_util

(** 1-D unboxed float column. *)
type fa = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  x : fa;
  y : fa;
  z : fa;  (** positions *)
  fx : fa;
  fy : fa;
  fz : fa;  (** force accumulator *)
  mutable box : Pbc.t;
}

(** [create ?box n] allocates zeroed columns for [n] particles. *)
val create : ?box:Pbc.t -> int -> t

(** A fresh zeroed column of length [n] — scratch for per-slot force
    accumulators that share a store's position columns. *)
val make_fa : int -> fa

val n : t -> int

(** Zero the force columns. *)
val clear_forces : t -> unit

(** [sync_load ?exec t positions] copies boxed positions into the flat
    columns and zeroes the force columns — the phase-entry sync. It is the
    {!Exec.sweep} phase ["soa.load"] (reads ["state.positions"], writes
    ["soa.positions"] and ["soa.forces"], tiled over atoms); every copy is
    a plain float move, so the parallel sync is bitwise identical to the
    serial one. *)
val sync_load : ?exec:Exec.t -> t -> Vec3.t array -> unit

(** [sync_store ?exec t acc] overwrites the accumulator's forces with the
    flat force columns — the phase-exit sync, as the {!Exec.sweep} phase
    ["soa.store"] (reads ["soa.forces"], writes ["state.forces"]). The
    kernels accumulate in the boxed order, so storing into a freshly reset
    accumulator reproduces the boxed accumulator bit for bit. *)
val sync_store : ?exec:Exec.t -> t -> Mdsp_ff.Bonded.accum -> unit
