(* The execution-backend layer: Serial vs Domains agreement on energies,
   forces, and virial; bit-level determinism of the static tiling + tree
   reduction; and the per-resource step-timing instrumentation. *)

open Mdsp_util
open Testsupport
module E = Mdsp_md.Engine
module FC = Mdsp_md.Force_calc

(* --- Exec primitives --- *)

let test_tile_bounds () =
  List.iter
    (fun (total, ntiles) ->
      let b = Exec.tile_bounds ~total ~ntiles in
      check_true "tile count" (Array.length b = ntiles);
      let covered = ref 0 in
      Array.iteri
        (fun k (lo, hi) ->
          check_true "monotone" (lo <= hi);
          if k > 0 then
            check_true "contiguous" (lo = snd b.(k - 1));
          covered := !covered + (hi - lo))
        b;
      check_true "covers all" (!covered = total);
      let sizes = Array.map (fun (lo, hi) -> hi - lo) b in
      let mn = Array.fold_left min max_int sizes in
      let mx = Array.fold_left max 0 sizes in
      check_true "balanced" (mx - mn <= 1))
    [ (0, 1); (0, 4); (1, 4); (7, 3); (100, 7); (156944, 4) ]

let test_reduce_tree () =
  let a = Array.init 13 (fun i -> float_of_int (i + 1)) in
  check_float ~eps:1e-12 "tree sum" 91. (Exec.reduce_tree ( +. ) a);
  check_true "sum_tree matches reduce_tree"
    (Exec.reduce_tree ( +. ) a = Exec.sum_tree a);
  check_true "max via tree"
    (Exec.reduce_tree max [| 3; 1; 4; 1; 5; 9; 2; 6 |] = 9)

let test_parallel_run_covers_slots () =
  let pool = Exec.create (Exec.Domains { n = 4 }) in
  check_true "n_slots" (Exec.n_slots pool = 4);
  let hits = Array.make 4 0 in
  for _ = 1 to 5 do
    Exec.parallel_run pool (fun s -> hits.(s) <- hits.(s) + 1)
  done;
  Exec.shutdown pool;
  Array.iter (fun h -> check_true "each slot ran each job" (h = 5)) hits

let test_parallel_run_propagates_exceptions () =
  let pool = Exec.create (Exec.Domains { n = 3 }) in
  let raised =
    try
      Exec.parallel_run pool (fun s -> if s = 2 then failwith "slot boom");
      false
    with Failure _ -> true
  in
  (* The pool must survive a failed job. *)
  let hits = Array.make 3 false in
  Exec.parallel_run pool (fun s -> hits.(s) <- true);
  Exec.shutdown pool;
  check_true "worker exception re-raised on caller" raised;
  check_true "pool usable after failure" (Array.for_all Fun.id hits)

(* --- a solvated box exercising every force class ---

   Rigid water (SHAKE constraints), real-space Ewald pairs + reciprocal
   Ewald long-range, plus a registered bias: the workload from the
   integration suite, evaluated on both backends. *)

let solvated_fc ~exec () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:4 () in
  let open Mdsp_workload.Workloads in
  let cutoff = 0.45 *. Pbc.min_edge sys.box in
  let beta = 3.0 /. cutoff in
  let evaluator =
    Mdsp_ff.Pair_interactions.of_topology sys.topo ~cutoff
      ~trunc:Mdsp_ff.Nonbonded.Shift
      ~elec:(Mdsp_ff.Pair_interactions.Ewald_real { beta })
  in
  let nlist =
    Mdsp_space.Neighbor_list.create
      ~exclusions:sys.topo.Mdsp_ff.Topology.exclusions ~cutoff ~skin:1.
      sys.box sys.positions
  in
  let ew = Mdsp_longrange.Ewald.create ~beta ~kmax:5 sys.box in
  let fc =
    FC.create ~exec sys.topo ~evaluator ~longrange:(FC.Lr_ewald ew) ~nlist
  in
  FC.add_bias fc
    (Mdsp_workload.Workloads.double_well_bias ~barrier:1.0 ~half_width:4.0);
  (sys, fc)

let compute_once ~exec () =
  let sys, fc = solvated_fc ~exec () in
  let n = Mdsp_ff.Topology.n_atoms sys.Mdsp_workload.Workloads.topo in
  let acc = Mdsp_ff.Bonded.make_accum n in
  let e =
    FC.compute fc sys.Mdsp_workload.Workloads.box
      sys.Mdsp_workload.Workloads.positions acc
  in
  (e, acc)

let rel_force_diff a b =
  let fmax = ref 1e-30 and dmax = ref 0. in
  Array.iteri
    (fun i f ->
      fmax := Float.max !fmax (Vec3.norm f);
      dmax := Float.max !dmax (Vec3.dist f b.(i)))
    a;
  !dmax /. !fmax

let test_serial_vs_domains_agree () =
  let e_s, acc_s = compute_once ~exec:Exec.serial () in
  let pool = Exec.create (Exec.Domains { n = 4 }) in
  let e_p, acc_p = compute_once ~exec:pool () in
  Exec.shutdown pool;
  let open FC in
  check_close ~rel:1e-10 "bond energy" e_s.bond e_p.bond;
  check_close ~rel:1e-10 "pair energy" e_s.pair e_p.pair;
  check_close ~rel:1e-10 "recip energy" e_s.recip e_p.recip;
  check_close ~rel:1e-10 "correction" e_s.correction e_p.correction;
  check_close ~rel:1e-10 "bias energy" e_s.bias e_p.bias;
  check_close ~rel:1e-10 "total energy" (total e_s) (total e_p);
  check_close ~rel:1e-10 "virial" acc_s.Mdsp_ff.Bonded.virial
    acc_p.Mdsp_ff.Bonded.virial;
  let rel =
    rel_force_diff acc_s.Mdsp_ff.Bonded.forces acc_p.Mdsp_ff.Bonded.forces
  in
  check_true
    (Printf.sprintf "forces agree (rel %.2e <= 1e-10)" rel)
    (rel <= 1e-10)

let test_bonded_workload_agrees () =
  (* A charged bead chain: bonds, angles, dihedrals, 1-4 pairs and
     reaction-field electrostatics through the parallel tiles. *)
  let sys = Mdsp_workload.Workloads.bead_chain ~n_beads:16 ~n_total:256 () in
  let compute exec =
    let eng =
      Mdsp_workload.Workloads.make_engine ~seed:5 ~exec sys
    in
    let acc = Mdsp_ff.Bonded.make_accum 256 in
    let e =
      FC.compute (E.force_calc eng) (E.state eng).Mdsp_md.State.box
        (E.state eng).Mdsp_md.State.positions acc
    in
    (e, acc)
  in
  let e_s, acc_s = compute Exec.serial in
  let pool = Exec.create (Exec.Domains { n = 3 }) in
  let e_p, acc_p = compute pool in
  Exec.shutdown pool;
  let open FC in
  check_close ~rel:1e-10 "bond" e_s.bond e_p.bond;
  check_close ~rel:1e-10 "angle" e_s.angle e_p.angle;
  check_close ~rel:1e-10 "dihedral" e_s.dihedral e_p.dihedral;
  check_close ~rel:1e-10 "pair (incl. 1-4)" e_s.pair e_p.pair;
  check_close ~rel:1e-10 "virial" acc_s.Mdsp_ff.Bonded.virial
    acc_p.Mdsp_ff.Bonded.virial;
  let rel =
    rel_force_diff acc_s.Mdsp_ff.Bonded.forces acc_p.Mdsp_ff.Bonded.forces
  in
  check_true
    (Printf.sprintf "forces agree (rel %.2e <= 1e-10)" rel)
    (rel <= 1e-10)

let test_respa_classes_agree () =
  let run exec cls =
    let sys, fc = solvated_fc ~exec () in
    let n = Mdsp_ff.Topology.n_atoms sys.Mdsp_workload.Workloads.topo in
    let acc = Mdsp_ff.Bonded.make_accum n in
    let e =
      FC.compute_class fc cls sys.Mdsp_workload.Workloads.box
        sys.Mdsp_workload.Workloads.positions acc
    in
    (e, acc)
  in
  let pool = Exec.create (Exec.Domains { n = 4 }) in
  List.iter
    (fun cls ->
      let e_s, acc_s = run Exec.serial cls in
      let e_p, acc_p = run pool cls in
      check_close ~rel:1e-10 "class energy" (FC.total e_s) (FC.total e_p);
      let rel =
        rel_force_diff acc_s.Mdsp_ff.Bonded.forces
          acc_p.Mdsp_ff.Bonded.forces
      in
      check_true "class forces" (rel <= 1e-10))
    [ `Fast; `Slow ];
  Exec.shutdown pool

(* --- determinism --- *)

let test_parallel_determinism_single_eval () =
  (* Two evaluations on two fresh pools of the same width must be
     bit-for-bit identical: static tiles + fixed-shape tree reduction. *)
  let run () =
    let pool = Exec.create (Exec.Domains { n = 4 }) in
    let r = compute_once ~exec:pool () in
    Exec.shutdown pool;
    r
  in
  let e1, acc1 = run () in
  let e2, acc2 = run () in
  check_true "energies bit-identical" (e1 = e2);
  check_true "virial bit-identical"
    (acc1.Mdsp_ff.Bonded.virial = acc2.Mdsp_ff.Bonded.virial);
  let identical = ref true in
  Array.iteri
    (fun i f -> if f <> acc2.Mdsp_ff.Bonded.forces.(i) then identical := false)
    acc1.Mdsp_ff.Bonded.forces;
  check_true "forces bit-identical" !identical

let test_parallel_determinism_trajectory () =
  (* A full dynamical run (thermostat, constraints, rebuilds) repeated on a
     parallel backend stays bit-identical. *)
  let run () =
    let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
    let pool = Exec.create (Exec.Domains { n = 4 }) in
    let cfg =
      {
        E.default_config with
        dt_fs = 1.0;
        temperature = 300.;
        thermostat = E.Langevin { gamma_fs = 0.02 };
      }
    in
    let eng = Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:7 ~exec:pool sys in
    E.run eng 25;
    let st = E.state eng in
    let pos = Array.copy st.Mdsp_md.State.positions in
    Exec.shutdown pool;
    (pos, E.total_energy eng)
  in
  let pos1, e1 = run () in
  let pos2, e2 = run () in
  check_true "trajectory energy bit-identical" (e1 = e2);
  let identical = ref true in
  Array.iteri (fun i p -> if p <> pos2.(i) then identical := false) pos1;
  check_true "trajectory positions bit-identical" !identical

(* The sweep identity cases compare a pooled engine against an
   [Exec.serial] engine built from the same system and seed. Force phases
   on a pool sum per-slot partials with a reduction tree, so the two
   engines' forces agree only to rounding; these cases therefore run an
   interaction-free copy of the system (LJ wells, charges and bonded terms
   zeroed), whose force phases contribute exact zeros on both engines,
   while the serial double-well bias supplies position-dependent forces
   for the kicks. Any bit of difference between the two trajectories then
   comes from the integrator, constraint or thermostat sweeps. At one slot
   the pooled side is a sanitizing serial executor, which takes the
   declaring parallel branches with a single tile. *)
let interaction_free (sys : Mdsp_workload.Workloads.system) =
  let t = sys.Mdsp_workload.Workloads.topo in
  {
    sys with
    Mdsp_workload.Workloads.topo =
      {
        t with
        Mdsp_ff.Topology.atoms =
          Array.map
            (fun (a : Mdsp_ff.Topology.atom) -> { a with charge = 0. })
            t.Mdsp_ff.Topology.atoms;
        lj_types = Array.map (fun (_, sigma) -> (0., sigma)) t.lj_types;
        bonds = [||];
        angles = [||];
        dihedrals = [||];
        impropers = [||];
        pairs14 = [||];
      };
  }

let sweep_run ~cfg ~seed ~steps exec sys =
  let eng =
    Mdsp_workload.Workloads.make_engine ~config:cfg ~seed ~exec
      (interaction_free sys)
  in
  FC.add_bias (E.force_calc eng)
    (Mdsp_workload.Workloads.double_well_bias ~barrier:1.0 ~half_width:4.0);
  E.refresh_forces eng;
  E.run eng steps;
  let st = E.state eng in
  let pos = Array.copy st.Mdsp_md.State.positions in
  let vel = Array.copy st.Mdsp_md.State.velocities in
  Exec.shutdown exec;
  (pos, vel)

let check_sweeps_bitwise ?(slots = [ 1; 2; 4 ]) name ~cfg ~seed ~steps sys =
  let pos_s, vel_s = sweep_run ~cfg ~seed ~steps Exec.serial sys in
  List.iter
    (fun n ->
      let exec =
        if n = 1 then Exec.create ~sanitize:true Exec.Serial
        else Exec.create (Exec.Domains { n })
      in
      let pos_p, vel_p = sweep_run ~cfg ~seed ~steps exec sys in
      check_true
        (Printf.sprintf "%s positions bitwise at %d slots" name n)
        (pos_p = pos_s);
      check_true
        (Printf.sprintf "%s velocities bitwise at %d slots" name n)
        (vel_p = vel_s))
    slots

let test_integrator_sweeps_bitwise () =
  (* The kick/drift sweeps are per-atom independent, so running them tiled
     over the pool must reproduce the serial sweeps bit-for-bit. An
     unconstrained, unthermostatted fluid isolates them. *)
  check_sweeps_bitwise "integrator"
    ~cfg:{ E.default_config with dt_fs = 2.0; temperature = 120. }
    ~seed:11 ~steps:20
    (Mdsp_workload.Workloads.lj_fluid ~n:256 ())

let test_constraint_sweeps_bitwise () =
  (* The batched SHAKE/RATTLE cluster sweeps, the constraint velocity fold
     and the Langevin O-step all run over the pool; the coloring
     certificate (Mdsp_verify.Schedule) says same-batch clusters are
     atom-disjoint and the O-step uses per-atom derived streams, so the
     tiled sweeps must reproduce the serial solver bit-for-bit. *)
  check_sweeps_bitwise "constraints"
    ~cfg:
      {
        E.default_config with
        dt_fs = 1.0;
        temperature = 300.;
        thermostat = E.Langevin { gamma_fs = 0.02 };
      }
    ~seed:11 ~steps:20
    (Mdsp_workload.Workloads.water_box ~n_side:3 ())

let test_water6k_constraint_sweeps_bitwise () =
  (* The registry workload the schedule gate certifies: 2197 rigid waters
     fused into one batch, Berendsen rescale at the end of the step. Two
     steps suffice — a cross-slot disagreement in the very first SHAKE
     batch is already a bitwise diff. *)
  check_sweeps_bitwise ~slots:[ 1; 4 ] "water6k"
    ~cfg:
      {
        E.default_config with
        dt_fs = 1.0;
        temperature = 300.;
        thermostat = E.Berendsen { tau_fs = 100. };
      }
    ~seed:3 ~steps:2
    (Mdsp_workload.Workloads.water_box ~n_side:13 ())

let test_chain10k_thermostat_bitwise () =
  (* chain10k carries no constraints at all, so this isolates the
     thermostat sweeps: the per-atom derived Langevin streams must make
     the O-step independent of the tiling. *)
  check_sweeps_bitwise ~slots:[ 1; 4 ] "chain10k"
    ~cfg:
      {
        E.default_config with
        dt_fs = 2.0;
        temperature = 120.;
        thermostat = E.Langevin { gamma_fs = 0.02 };
      }
    ~seed:21 ~steps:3
    (Mdsp_workload.Workloads.bead_chain ~n_beads:256 ~n_total:10_000 ())

let test_engine_backends_consistent () =
  (* Short run: backends may differ only by rounding, which cannot grow far
     in a few steps. *)
  let run exec =
    let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
    let eng = Mdsp_workload.Workloads.make_engine ~seed:9 ~exec sys in
    E.run eng 5;
    E.total_energy eng
  in
  let e_s = run Exec.serial in
  let pool = Exec.create (Exec.Domains { n = 2 }) in
  let e_p = run pool in
  Exec.shutdown pool;
  check_close ~rel:1e-6 "5-step total energy" e_s e_p

(* --- the GSE grid pipeline on the pool ---

   Charged solvated water with grid electrostatics: real-space Ewald pairs
   plus the GSE reciprocal solver, every stage of which (spread / fft /
   convolve / gather) is tiled over the Exec pool. *)

let gse_grid = (16, 16, 16)

let gse_engine ~exec () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 1.0;
      temperature = 300.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:13 ~exec ~gse_grid
    sys

let gse_compute_once ~exec () =
  let eng = gse_engine ~exec () in
  let fc = E.force_calc eng in
  (match FC.longrange_kind fc with
  | `Gse g -> check_true "GSE solver installed" (g = gse_grid)
  | _ -> Alcotest.fail "expected a GSE long-range solver");
  let st = E.state eng in
  let acc = Mdsp_ff.Bonded.make_accum (Mdsp_md.State.n st) in
  let e = FC.compute fc st.Mdsp_md.State.box st.Mdsp_md.State.positions acc in
  (e, acc)

let test_gse_serial_vs_domains_agree () =
  let e_s, acc_s = gse_compute_once ~exec:Exec.serial () in
  let pool = Exec.create (Exec.Domains { n = 4 }) in
  let e_p, acc_p = gse_compute_once ~exec:pool () in
  Exec.shutdown pool;
  let open FC in
  check_close ~rel:1e-10 "pair energy" e_s.pair e_p.pair;
  check_close ~rel:1e-10 "GSE recip energy" e_s.recip e_p.recip;
  check_close ~rel:1e-10 "correction" e_s.correction e_p.correction;
  check_close ~rel:1e-10 "total energy" (total e_s) (total e_p);
  check_close ~rel:1e-10 "virial" acc_s.Mdsp_ff.Bonded.virial
    acc_p.Mdsp_ff.Bonded.virial;
  let rel =
    rel_force_diff acc_s.Mdsp_ff.Bonded.forces acc_p.Mdsp_ff.Bonded.forces
  in
  check_true
    (Printf.sprintf "forces agree (rel %.2e <= 1e-10)" rel)
    (rel <= 1e-10)

let test_gse_reciprocal_backends () =
  (* The grid phase in isolation: Gse.reciprocal on the serial backend vs
     a pool, and two fresh pools against each other (bitwise). *)
  let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  let open Mdsp_workload.Workloads in
  let n = Mdsp_ff.Topology.n_atoms sys.topo in
  let charges = Mdsp_ff.Topology.charges sys.topo in
  let run exec =
    let gse = Mdsp_longrange.Gse.create ~beta:0.4 ~grid:gse_grid sys.box in
    let acc = Mdsp_ff.Bonded.make_accum n in
    let ph = Mdsp_longrange.Gse.zero_phases () in
    let e =
      Mdsp_longrange.Gse.reciprocal ~exec ~phases:ph gse charges
        sys.positions acc
    in
    (e, acc, ph)
  in
  let e_s, acc_s, _ = run Exec.serial in
  let with_pool () =
    let pool = Exec.create (Exec.Domains { n = 4 }) in
    let r = run pool in
    Exec.shutdown pool;
    r
  in
  let e_p, acc_p, ph_p = with_pool () in
  check_close ~rel:1e-10 "reciprocal energy" e_s e_p;
  check_close ~rel:1e-10 "reciprocal virial" acc_s.Mdsp_ff.Bonded.virial
    acc_p.Mdsp_ff.Bonded.virial;
  let rel =
    rel_force_diff acc_s.Mdsp_ff.Bonded.forces acc_p.Mdsp_ff.Bonded.forces
  in
  check_true "reciprocal forces (rel <= 1e-10)" (rel <= 1e-10);
  check_true "phases were timed"
    (Mdsp_longrange.Gse.phases_total ph_p > 0.);
  let e_p2, acc_p2, _ = with_pool () in
  check_true "grid-phase energy bit-identical" (e_p = e_p2);
  check_true "grid-phase virial bit-identical"
    (acc_p.Mdsp_ff.Bonded.virial = acc_p2.Mdsp_ff.Bonded.virial);
  let identical = ref true in
  Array.iteri
    (fun i f ->
      if f <> acc_p2.Mdsp_ff.Bonded.forces.(i) then identical := false)
    acc_p.Mdsp_ff.Bonded.forces;
  check_true "grid-phase forces bit-identical" !identical

let test_gse_trajectory_determinism () =
  (* A short dynamical GSE run (spread/fft/convolve/gather every step plus
     rebuilds and the thermostat) repeated on fresh pools stays
     bit-identical. *)
  let run () =
    let pool = Exec.create (Exec.Domains { n = 4 }) in
    let eng = gse_engine ~exec:pool () in
    E.run eng 10;
    let pos = Array.copy (E.state eng).Mdsp_md.State.positions in
    Exec.shutdown pool;
    (pos, E.total_energy eng)
  in
  let pos1, e1 = run () in
  let pos2, e2 = run () in
  check_true "GSE trajectory energy bit-identical" (e1 = e2);
  let identical = ref true in
  Array.iteri (fun i p -> if p <> pos2.(i) then identical := false) pos1;
  check_true "GSE trajectory positions bit-identical" !identical

(* The clock's undotted entries, summed in entry order. *)
let undotted_sum clock =
  List.fold_left
    (fun acc (name, sec) ->
      if String.contains name '.' then acc else acc +. sec)
    0. (Timer.entries clock)

let test_gse_subphase_timings () =
  let eng = gse_engine ~exec:Exec.serial () in
  E.reset_clock eng;
  E.run eng 5;
  let clock = E.clock eng in
  let sec = Timer.seconds clock in
  check_true "calls counted" (Timer.ticks clock = 5);
  check_true "spread time recorded" (sec "lr.spread" > 0.);
  check_true "fft time recorded" (sec "lr.fft" > 0.);
  check_true "convolve time recorded" (sec "lr.convolve" > 0.);
  check_true "gather time recorded" (sec "lr.gather" > 0.);
  let sub =
    sec "lr.spread" +. sec "lr.fft" +. sec "lr.convolve" +. sec "lr.gather"
  in
  (* The sub-phases partition the grid pipeline; the lr phase also holds
     the Ewald self/excluded correction work on top. *)
  check_true "sub-phases within the lr phase" (sub <= sec "lr" +. 1e-9);
  check_close ~rel:1e-9 "per-call scaling of sub-phases"
    (sec "lr.spread" /. 5.)
    (Timer.per_tick clock (sec "lr.spread"));
  (* The total must not double-count the breakdown. *)
  check_true "total excludes the sub-phase breakdown"
    (abs_float (Timer.total clock -. undotted_sum clock) < 1e-12);
  check_true "total holds every undotted phase"
    (Timer.total clock
    >= sec "pair" +. sec "lr" +. sec "neighbor" +. sec "integrate"
       +. sec "constraints" +. sec "thermostat" -. 1e-12);
  E.reset_clock eng;
  check_true "reset clears sub-phases"
    (List.for_all (fun (_, s) -> s = 0.) (Timer.entries (E.clock eng))
    && Timer.ticks (E.clock eng) = 0);
  (* A solver-free workload must leave the grid sub-phases untouched. *)
  let plain =
    Mdsp_workload.Workloads.make_engine ~seed:3
      (Mdsp_workload.Workloads.lj_fluid ~n:64 ())
  in
  E.run plain 3;
  check_true "no GSE -> no sub-phase time"
    (List.for_all
       (fun (name, s) ->
         s = 0. || not (String.starts_with ~prefix:"lr." name))
       (Timer.entries (E.clock plain)))

(* --- the one force pipeline ---

   Bonded and 1-4 terms always run the flat Soa_kernels loops; the pair
   phase runs the flat kernel under an analytic evaluator and the generic
   evaluator loop otherwise. The flat kernels are expression-for-expression
   mirrors of the boxed reference kernels, so every configuration must
   equal the direct reference sum — Bonded.all + compute_pairs14 +
   Pair_interactions.compute (+ the long-range solver) — *bitwise*:
   energies, every force component and the virial, serially and on a
   pool. *)

let soa_systems () =
  [
    ("lj fluid", Mdsp_workload.Workloads.lj_fluid ~n:256 ());
    ("water box", Mdsp_workload.Workloads.water_box ~n_side:3 ());
    ( "bead chain",
      Mdsp_workload.Workloads.bead_chain ~n_beads:16 ~n_total:256 () );
  ]

(* The stock bead chain fully excludes its 1-4 pairs; AMBER-style scaling
   makes the 1-4 kernels run. *)
let scaled14_chain () =
  let sys = Mdsp_workload.Workloads.bead_chain ~n_beads:16 ~n_total:256 () in
  {
    sys with
    Mdsp_workload.Workloads.topo =
      {
        sys.Mdsp_workload.Workloads.topo with
        Mdsp_ff.Topology.scale14_lj = 0.5;
        scale14_coul = 1. /. 1.2;
      };
  }

let engine_compute ?cls eng =
  let st = E.state eng in
  let acc = Mdsp_ff.Bonded.make_accum (Mdsp_md.State.n st) in
  let fc = E.force_calc eng in
  let box = st.Mdsp_md.State.box and pos = st.Mdsp_md.State.positions in
  let e =
    match cls with
    | None -> FC.compute fc box pos acc
    | Some cls -> FC.compute_class fc cls box pos acc
  in
  (e, acc)

(* The direct reference sum over the engine's current frame, neighbor list
   and installed evaluator, in pipeline order. [gse] replays the grid
   solver [make_engine ~gse_grid] installs (beta = 3 / cutoff) with the
   same Ewald self/excluded corrections. [cls] restricts it to a RESPA
   class like [compute_class]. *)
let reference ?gse ?cls ~exec eng =
  let fc = E.force_calc eng in
  let st = E.state eng in
  let topo = FC.topology fc and nlist = FC.nlist fc in
  let ev = FC.evaluator fc in
  let cutoff = ev.Mdsp_ff.Pair_interactions.cutoff in
  let box = st.Mdsp_md.State.box and pos = st.Mdsp_md.State.positions in
  let acc = Mdsp_ff.Bonded.make_accum (Mdsp_md.State.n st) in
  let fast = cls <> Some `Slow and slow = cls <> Some `Fast in
  let bond, angle, dihedral =
    if fast then Mdsp_ff.Bonded.all ~exec box topo pos acc else (0., 0., 0.)
  in
  let pair14 =
    if fast then
      Mdsp_ff.Pair_interactions.compute_pairs14 ~exec topo ~cutoff box pos acc
    else 0.
  in
  let pair =
    if slow then
      pair14 +. Mdsp_ff.Pair_interactions.compute ~exec ev box nlist pos acc
    else pair14
  in
  let recip, correction =
    match gse with
    | Some grid when slow ->
        let beta = 3.0 /. Mdsp_space.Neighbor_list.cutoff nlist in
        let charges = Mdsp_ff.Topology.charges topo in
        let recip =
          Mdsp_longrange.Gse.reciprocal ~exec
            (Mdsp_longrange.Gse.create ~beta ~grid box)
            charges pos acc
        in
        let ew = Mdsp_longrange.Ewald.create ~beta ~kmax:1 box in
        ( recip,
          Mdsp_longrange.Ewald.self_energy ew charges
          +. Mdsp_longrange.Ewald.excluded_correction ew box charges pos
               topo.Mdsp_ff.Topology.exclusions acc )
    | _ -> (0., 0.)
  in
  ({ FC.bond; angle; dihedral; pair; recip; correction; bias = 0. }, acc)

let check_bitwise name (e_a, acc_a) (e_b, acc_b) =
  check_true (name ^ ": energies bit-identical") (e_a = e_b);
  check_true
    (name ^ ": virial bit-identical")
    (acc_a.Mdsp_ff.Bonded.virial = acc_b.Mdsp_ff.Bonded.virial);
  let identical = ref true in
  Array.iteri
    (fun i f ->
      if f <> acc_b.Mdsp_ff.Bonded.forces.(i) then identical := false)
    acc_a.Mdsp_ff.Bonded.forces;
  check_true (name ^ ": forces bit-identical") !identical

(* The default engine (analytic evaluator, flat pair kernel) against the
   reference sum on the same executor. *)
let check_against_reference ?gse_grid ~exec name sys =
  let eng =
    Mdsp_workload.Workloads.make_engine ?gse_grid ~seed:5 ~exec sys
  in
  check_true (name ^ ": flat pair kernel")
    (FC.pair_kernel (E.force_calc eng) = `Flat);
  check_bitwise name (engine_compute eng) (reference ?gse:gse_grid ~exec eng)

let test_soa_matches_boxed_serial () =
  List.iter
    (fun (name, sys) -> check_against_reference ~exec:Exec.serial name sys)
    (("scaled 1-4 chain", scaled14_chain ()) :: soa_systems ())

let test_soa_matches_boxed_domains () =
  (* The flat parallel phases mirror the boxed tile decomposition and
     reduction tree shape, so agreement holds bitwise on a pool too. *)
  let pool = Exec.create (Exec.Domains { n = 3 }) in
  List.iter
    (fun (name, sys) -> check_against_reference ~exec:pool name sys)
    (("scaled 1-4 chain", scaled14_chain ()) :: soa_systems ());
  Exec.shutdown pool

let test_soa_matches_boxed_gse () =
  (* Ewald real-space pairs + GSE reciprocal: the flat pair kernel covers
     the erfc path; the grid phase adds into the same accumulator. *)
  let sys () = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  check_against_reference ~gse_grid:(16, 16, 16) ~exec:Exec.serial
    "gse water (serial)" (sys ());
  let pool = Exec.create (Exec.Domains { n = 4 }) in
  check_against_reference ~gse_grid:(16, 16, 16) ~exec:pool
    "gse water (domains)" (sys ());
  Exec.shutdown pool

let test_soa_respa_classes_match () =
  let eng =
    Mdsp_workload.Workloads.make_engine ~seed:5 ~exec:Exec.serial
      (scaled14_chain ())
  in
  List.iter
    (fun (name, cls) ->
      check_bitwise name (engine_compute ~cls eng)
        (reference ~cls ~exec:Exec.serial eng))
    [ ("fast class", `Fast); ("slow class", `Slow) ]

(* The engine's own analytic evaluator with its recipe hidden: the same
   [eval] closure, so it selects the generic loop over identical physics. *)
let opaque eng =
  let ev = FC.evaluator (E.force_calc eng) in
  { ev with Mdsp_ff.Pair_interactions.form = None }

let test_soa_trajectory_matches_boxed () =
  (* Bitwise force identity implies bitwise trajectory identity: the flat
     pair kernel against the generic loop over the same evaluator — same
     seed, same thermostat noise stream, 25 steps with rebuilds and
     constraints. *)
  let run ~generic =
    let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
    let cfg =
      {
        E.default_config with
        dt_fs = 1.0;
        temperature = 300.;
        thermostat = E.Langevin { gamma_fs = 0.02 };
      }
    in
    let eng = Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:7 sys in
    if generic then begin
      FC.set_evaluator (E.force_calc eng) (opaque eng);
      E.refresh_forces eng;
      check_true "generic pair loop"
        (FC.pair_kernel (E.force_calc eng) = `Generic)
    end;
    E.run eng 25;
    (Array.copy (E.state eng).Mdsp_md.State.positions, E.total_energy eng)
  in
  let pos_b, e_b = run ~generic:true in
  let pos_s, e_s = run ~generic:false in
  check_true "trajectory energy bit-identical" (e_b = e_s);
  let identical = ref true in
  Array.iteri (fun i p -> if p <> pos_s.(i) then identical := false) pos_b;
  check_true "trajectory positions bit-identical" !identical

let test_soa_parallel_determinism () =
  let run () =
    let pool = Exec.create (Exec.Domains { n = 4 }) in
    let eng =
      Mdsp_workload.Workloads.make_engine ~seed:5 ~exec:pool
        (Mdsp_workload.Workloads.water_box ~n_side:3 ())
    in
    let r = engine_compute eng in
    Exec.shutdown pool;
    r
  in
  check_bitwise "fresh pools" (run ()) (run ())

let test_soa_pair_loop_zero_alloc () =
  (* The serial flat pair window is measured with Gc.minor_words: the flat
     loop must not allocate at all once warm. *)
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:500 () in
  let eng = Mdsp_workload.Workloads.make_engine ~seed:3 sys in
  check_true "flat pair kernel" (FC.pair_kernel (E.force_calc eng) = `Flat);
  E.run eng 2;
  E.reset_clock eng;
  E.run eng 10;
  let words = FC.pair_minor_words (E.force_calc eng) in
  check_true "10 evaluations measured" (Timer.ticks (E.clock eng) = 10);
  check_true
    (Printf.sprintf "pair loop allocates zero minor words (got %.1f)" words)
    (words = 0.)

let test_soa_phases_race_free () =
  (* The flat parallel phases under the write-set sanitizer at 2 and 4
     slots: pair tiles, 1-4 pairs, the four bonded terms, the per-atom
     reduction, plus the cell-list bin and pair-list build phases; and the
     generic pair loop with its reduction into the force array. *)
  List.iter
    (fun slots ->
      let exec = Exec.create ~sanitize:true (Exec.Domains { n = slots }) in
      Fun.protect
        ~finally:(fun () -> Exec.shutdown exec)
        (fun () ->
          let chain =
            Mdsp_workload.Workloads.make_engine ~seed:5 ~exec
              (scaled14_chain ())
          in
          ignore (engine_compute chain);
          FC.set_evaluator (E.force_calc chain) (opaque chain);
          ignore (engine_compute chain);
          ignore
            (engine_compute
               (Mdsp_workload.Workloads.make_engine ~seed:5 ~exec
                  ~gse_grid:(16, 16, 16)
                  (Mdsp_workload.Workloads.water_box ~n_side:3 ())))))
    [ 2; 4 ]

(* A machine-table evaluator for [sys], compiled at [cutoff]. *)
let table_evaluator (sys : Mdsp_workload.Workloads.system) ~cutoff =
  let topo = sys.Mdsp_workload.Workloads.topo in
  let tables =
    Mdsp_core.Table.table_set_of_topology topo ~cutoff
      ~elec:(Mdsp_ff.Pair_interactions.Reaction_field { epsilon_rf = 78.5 })
      ~n:1024 ()
  in
  Mdsp_machine.Htis.evaluator tables
    ~types:
      (Array.map
         (fun (a : Mdsp_ff.Topology.atom) -> a.type_id)
         topo.Mdsp_ff.Topology.atoms)
    ~charges:(Mdsp_ff.Topology.charges topo) ~cutoff

let test_tables_match_reference () =
  (* Flat bonded and 1-4 terms next to the generic pair loop over an HTIS
     table evaluator: still the reference sum, bit for bit, at 1 and 2
     slots. *)
  let sys = scaled14_chain () in
  List.iter
    (fun slots ->
      let exec =
        if slots = 1 then Exec.serial
        else Exec.create (Exec.Domains { n = slots })
      in
      let eng = Mdsp_workload.Workloads.make_engine ~seed:5 ~exec sys in
      let fc = E.force_calc eng in
      let cutoff = Mdsp_space.Neighbor_list.cutoff (FC.nlist fc) in
      FC.set_evaluator fc (table_evaluator sys ~cutoff);
      check_true "tables run the generic loop" (FC.pair_kernel fc = `Generic);
      check_bitwise
        (Printf.sprintf "tables at %d slots" slots)
        (engine_compute eng) (reference ~exec eng);
      if slots > 1 then Exec.shutdown exec)
    [ 1; 2 ]

let test_set_evaluator_reselects_kernel () =
  (* The kernel is picked again on every set_evaluator: tables drop the
     pair phase to the generic loop, an analytic evaluator puts it back on
     the flat loop with parameters rebuilt from that evaluator's recipe
     and cutoff (a shorter cutoff must not run the stale flat
     parameters), and a Switch recipe has no flat kernel. *)
  let sys = scaled14_chain () in
  let eng = Mdsp_workload.Workloads.make_engine ~seed:5 sys in
  let fc = E.force_calc eng in
  let topo = FC.topology fc in
  let cutoff = Mdsp_space.Neighbor_list.cutoff (FC.nlist fc) in
  let analytic ?(trunc = Mdsp_ff.Nonbonded.Shift) cutoff =
    Mdsp_ff.Pair_interactions.of_topology topo ~cutoff ~trunc
      ~elec:(Mdsp_ff.Pair_interactions.Reaction_field { epsilon_rf = 78.5 })
  in
  let e0, _ = engine_compute eng in
  FC.set_evaluator fc (table_evaluator sys ~cutoff);
  check_true "tables: generic" (FC.pair_kernel fc = `Generic);
  FC.set_evaluator fc (analytic cutoff);
  check_true "analytic again: flat" (FC.pair_kernel fc = `Flat);
  check_bitwise "flat loop restored" (engine_compute eng)
    (reference ~exec:Exec.serial eng);
  check_true "same physics as the engine's own evaluator"
    (fst (engine_compute eng) = e0);
  FC.set_evaluator fc (analytic (cutoff -. 2.));
  check_true "shorter cutoff: flat" (FC.pair_kernel fc = `Flat);
  let e_short, _ = engine_compute eng in
  check_bitwise "shorter cutoff matches its reference"
    (e_short, snd (engine_compute eng))
    (reference ~exec:Exec.serial eng);
  check_true "shorter cutoff changes the pair energy"
    (e_short.FC.pair <> e0.FC.pair);
  FC.set_evaluator fc
    (analytic ~trunc:(Mdsp_ff.Nonbonded.Switch { r_on = cutoff -. 2. }) cutoff);
  check_true "Switch: generic" (FC.pair_kernel fc = `Generic);
  check_bitwise "Switch matches its reference" (engine_compute eng)
    (reference ~exec:Exec.serial eng)

let test_nbuild_subphase_timed () =
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:256 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:3 sys in
  E.reset_clock eng;
  E.run eng 40;
  let clock = E.clock eng in
  let nbuild = Timer.seconds clock "neighbor.build" in
  let rebuilt =
    Mdsp_space.Neighbor_list.rebuild_count (FC.nlist (E.force_calc eng)) > 0
  in
  check_true "nbuild within the neighbor phase"
    (nbuild >= 0. && nbuild <= Timer.seconds clock "neighbor" +. 1e-9);
  if rebuilt then check_true "rebuilds were timed" (nbuild > 0.)

(* --- timing instrumentation --- *)

let test_step_timings_populated () =
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:256 () in
  let eng = Mdsp_workload.Workloads.make_engine ~seed:3 sys in
  E.reset_clock eng;
  E.run eng 10;
  let clock = E.clock eng in
  let sec = Timer.seconds clock in
  check_true "one force evaluation per step" (Timer.ticks clock = 10);
  check_true "pair time recorded" (sec "pair" > 0.);
  check_true "phases non-negative"
    (sec "bonded" >= 0. && sec "lr" >= 0. && sec "bias" >= 0.
    && sec "neighbor" >= 0.);
  check_true "integrator sweep time recorded" (sec "integrate" > 0.);
  check_close ~rel:1e-9 "per-call scaling" (sec "pair" /. 10.)
    (Timer.per_tick clock (sec "pair"));
  check_true "total is the sum"
    (abs_float (Timer.total clock -. undotted_sum clock) < 1e-12);
  E.reset_clock eng;
  check_true "reset clears" (Timer.ticks (E.clock eng) = 0)

let test_resource_rows_mapping () =
  let module P = Mdsp_machine.Perf in
  let w = P.plain_workload ~n_atoms:1000 ~density:0.1 ~cutoff:9. ~dt_fs:2. in
  let b = P.step_time (Mdsp_machine.Config.anton_like ()) w in
  let clock = Timer.table () in
  Timer.charge clock "pair" 2.0;
  Timer.charge clock "bonded" 0.5;
  Timer.charge clock "bias" 0.25;
  for _ = 1 to 10 do
    Timer.tick clock
  done;
  let find rows name = List.find (fun r -> r.P.resource = name) rows in
  let rows = P.resource_rows b clock in
  (match (find rows "pair pipelines").P.measured_s with
  | Some v -> check_float ~eps:1e-12 "pair maps per-call" 0.2 v
  | None -> Alcotest.fail "pair row unmapped");
  (match (find rows "flex cores").P.measured_s with
  | Some v -> check_float ~eps:1e-12 "flex = bonded + bias" 0.075 v
  | None -> Alcotest.fail "flex row unmapped");
  check_true "sync has no host analogue"
    ((find rows "sync").P.measured_s = None);
  (* The neighbor-build sub-phase row maps neighbor.build; the model has
     no build term, so the row carries no model value. *)
  Timer.charge clock "neighbor.build" 1.0;
  let nbuild = find (P.resource_rows b clock) "  nbuild" in
  (match nbuild.P.measured_s with
  | Some v -> check_float ~eps:1e-12 "nbuild maps per-call" 0.1 v
  | None -> Alcotest.fail "nbuild row unmapped");
  check_true "nbuild has no model value" (nbuild.P.model_s = None);
  check_true "network keeps its model value"
    ((find rows "network").P.model_s = Some b.P.comm_s);
  (* Unmeasured timings map to nothing. *)
  let rows0 = P.resource_rows b (Timer.table ()) in
  check_true "no calls -> no measured columns"
    (List.for_all (fun r -> r.P.measured_s = None) rows0)

let () =
  Alcotest.run "parallel"
    [
      ( "exec",
        [
          Alcotest.test_case "tile_bounds static partition" `Quick
            test_tile_bounds;
          Alcotest.test_case "tree reduction" `Quick test_reduce_tree;
          Alcotest.test_case "pool covers all slots" `Quick
            test_parallel_run_covers_slots;
          Alcotest.test_case "exceptions propagate" `Quick
            test_parallel_run_propagates_exceptions;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "solvated box: serial vs domains" `Quick
            test_serial_vs_domains_agree;
          Alcotest.test_case "bonded chain: serial vs domains" `Quick
            test_bonded_workload_agrees;
          Alcotest.test_case "RESPA fast/slow classes" `Quick
            test_respa_classes_agree;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "single evaluation bit-identical" `Quick
            test_parallel_determinism_single_eval;
          Alcotest.test_case "25-step trajectory bit-identical" `Quick
            test_parallel_determinism_trajectory;
          Alcotest.test_case "integrator sweeps bitwise vs serial at 1/2/4"
            `Quick test_integrator_sweeps_bitwise;
          Alcotest.test_case "constraint sweeps bitwise vs serial at 1/2/4"
            `Quick test_constraint_sweeps_bitwise;
          Alcotest.test_case "water6k constraint sweeps bitwise" `Quick
            test_water6k_constraint_sweeps_bitwise;
          Alcotest.test_case "chain10k thermostat sweeps bitwise" `Quick
            test_chain10k_thermostat_bitwise;
          Alcotest.test_case "backends consistent over a short run" `Quick
            test_engine_backends_consistent;
        ] );
      ( "gse",
        [
          Alcotest.test_case "charged box: serial vs domains" `Quick
            test_gse_serial_vs_domains_agree;
          Alcotest.test_case "grid phase backends + bitwise repeat" `Quick
            test_gse_reciprocal_backends;
          Alcotest.test_case "10-step GSE trajectory bit-identical" `Quick
            test_gse_trajectory_determinism;
          Alcotest.test_case "sub-phase timing sanity" `Quick
            test_gse_subphase_timings;
        ] );
      ( "soa",
        [
          Alcotest.test_case "SoA = boxed bitwise (serial)" `Quick
            test_soa_matches_boxed_serial;
          Alcotest.test_case "SoA = boxed bitwise (domains)" `Quick
            test_soa_matches_boxed_domains;
          Alcotest.test_case "SoA = boxed bitwise (GSE/Ewald)" `Quick
            test_soa_matches_boxed_gse;
          Alcotest.test_case "RESPA fast/slow classes bitwise" `Quick
            test_soa_respa_classes_match;
          Alcotest.test_case "25-step trajectory bitwise" `Quick
            test_soa_trajectory_matches_boxed;
          Alcotest.test_case "parallel SoA deterministic" `Quick
            test_soa_parallel_determinism;
          Alcotest.test_case "pair loop allocation-free" `Quick
            test_soa_pair_loop_zero_alloc;
          Alcotest.test_case "sanitized SoA phases race-free" `Quick
            test_soa_phases_race_free;
          Alcotest.test_case "table evaluator = reference sum at 1/2" `Quick
            test_tables_match_reference;
          Alcotest.test_case "set_evaluator re-picks the pair kernel" `Quick
            test_set_evaluator_reselects_kernel;
        ] );
      ( "timing",
        [
          Alcotest.test_case "per-resource step timings" `Quick
            test_step_timings_populated;
          Alcotest.test_case "nbuild sub-phase" `Quick
            test_nbuild_subphase_timed;
          Alcotest.test_case "model vs measured resource rows" `Quick
            test_resource_rows_mapping;
        ] );
    ]
