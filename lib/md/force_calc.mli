(** Full force-field evaluation: bonded + short-range pairs + long-range
    electrostatics + externally registered biases.

    One pipeline serves every evaluator. Bonded and scaled 1-4 terms always
    run the flat {!Soa_kernels} loops over a {!Soa} store. The short-range
    pair phase goes through an {!Mdsp_ff.Pair_interactions.evaluator}, the
    seam where the machine model substitutes its table-driven pipelines for
    the analytic reference: an analytic evaluator (one whose [form] records
    an {!Mdsp_ff.Pair_interactions.of_topology} recipe for this topology,
    any truncation but [Switch]) runs the flat allocation-free pair kernel;
    any other evaluator runs the generic {!Mdsp_ff.Pair_interactions.compute}
    loop over its [eval]. Results equal the direct reference sum
    [Bonded.all] + [compute_pairs14] + [Pair_interactions.compute] bit for
    bit. Biases (restraints, metadynamics hills, boost potentials...) are
    closures registered by the sampling methods. *)

open Mdsp_util

type longrange =
  | Lr_none
  | Lr_ewald of Mdsp_longrange.Ewald.t
  | Lr_gse of Mdsp_longrange.Gse.t

type energies = {
  bond : float;
  angle : float;
  dihedral : float;
  pair : float;  (** short-range nonbonded *)
  recip : float;  (** long-range reciprocal *)
  correction : float;  (** Ewald self + excluded-pair corrections *)
  bias : float;  (** all registered biases *)
}

val total : energies -> float
val zero_energies : energies

(** A bias sees the box and positions and adds forces into the accumulator,
    returning its energy. *)
type bias = {
  bias_name : string;
  bias_compute : Pbc.t -> Vec3.t array -> Mdsp_ff.Bonded.accum -> float;
}

(** A force transform rewrites the already-accumulated forces as a function
    of the pre-transform potential energy — the mechanism behind boost
    potentials (accelerated MD), where F' = F (1 - d(boost)/dV). It returns
    the boost energy to add to the bias total. Applied only by {!compute}
    (not the RESPA class-split path). *)
type transform = {
  tr_name : string;
  tr_apply : Pbc.t -> Vec3.t array -> Mdsp_ff.Bonded.accum -> float -> float;
}

type t

(** [create ?exec topo ~evaluator ~longrange ~nlist] builds the calculator
    and its flat store. [exec] (default {!Mdsp_util.Exec.serial}) selects
    the execution backend for the pair and bonded phases; per-slot scratch
    is sized here and reused across steps. [evaluator] picks the pair
    kernel as described above. *)
val create :
  ?exec:Exec.t ->
  Mdsp_ff.Topology.t ->
  evaluator:Mdsp_ff.Pair_interactions.evaluator ->
  longrange:longrange ->
  nlist:Mdsp_space.Neighbor_list.t ->
  t

val topology : t -> Mdsp_ff.Topology.t

(** The installed pair evaluator. *)
val evaluator : t -> Mdsp_ff.Pair_interactions.evaluator
val nlist : t -> Mdsp_space.Neighbor_list.t

(** The execution backend the calculator runs on. *)
val exec : t -> Exec.t

(** Which long-range solver is installed ([`Gse] carries its grid dims) —
    lets front ends report the configuration without matching on
    {!longrange}. *)
val longrange_kind : t -> [ `None | `Ewald | `Gse of int * int * int ]

(** The phase clock ({!Mdsp_util.Timer.table}) of this calculator — the
    live analogue of the machine model's per-resource breakdown
    ({!Mdsp_machine.Perf.breakdown}). {!compute} charges [neighbor] (with
    the rebuild itself under [neighbor.build]), [bonded], [pair] (the
    hardwired-pipeline work: neighbor-list pairs + 1-4 terms), [lr] (with
    the GSE grid sub-phases [lr.spread], [lr.fft], [lr.convolve],
    [lr.gather] of {!Mdsp_longrange.Gse.phases}) and [bias]; the engine
    adds its [integrate], [constraints] and [thermostat] sweeps. Each full
    force evaluation ({!compute}, [`Slow] class pass) is one tick. *)
val clock : t -> Timer.table

(** Cumulative minor-heap words (from [Gc.minor_words]) allocated inside
    the serial flat pair loop. The loop allocates nothing, so this stays
    exactly 0; parallel runs and the generic loop do not meter it. *)
val pair_minor_words : t -> float

(** Zeroes the phase clock and {!pair_minor_words}. *)
val reset_clock : t -> unit

(** Replace the pair evaluator (FEP lambda switching, machine
    substitution). The pair kernel is picked again from the new evaluator:
    an analytic one gets the flat loop with parameters rebuilt from its own
    recipe and cutoff, any other the generic loop; the 1-4 terms follow its
    cutoff. *)
val set_evaluator : t -> Mdsp_ff.Pair_interactions.evaluator -> unit

(** Which loop the pair phase runs under the installed evaluator. *)
val pair_kernel : t -> [ `Flat | `Generic ]

val add_bias : t -> bias -> unit

(** Remove a bias by name; returns true if one was removed. *)
val remove_bias : t -> string -> bool

val biases : t -> string list

(** Install or clear the force transform. *)
val set_transform : t -> transform option -> unit

(** [compute t box positions acc] refreshes the neighbor list if needed,
    accumulates all forces and the virial into [acc] (which is reset first)
    and returns the energy breakdown. *)
val compute : t -> Pbc.t -> Vec3.t array -> Mdsp_ff.Bonded.accum -> energies

(** Like {!compute} but restricted to a force class, for RESPA splitting:
    [`Fast] = bonded + biases, [`Slow] = nonbonded (+ long-range). *)
val compute_class :
  t -> [ `Fast | `Slow ] -> Pbc.t -> Vec3.t array -> Mdsp_ff.Bonded.accum ->
  energies
