(* The three benchmark workloads and their set-up, through the engine-level
   API only: [Workloads] generators + [make_engine], [Table.table_set_of_topology]
   + [Htis.evaluator] + [Force_calc.set_evaluator], [Engine.minimize].

   Why these three (BENCHMARK.json gates the last two):
   - lj4k: nearly all of its step is the pair kernel, the neighbor list, the
     Langevin RNG sweep and the Exec pool; no constraints, grid, bonded terms
     or tables run, so it is the control for changes to those. Its 2-slot
     step time is too bimodal on a small shared host to gate on;
   - water6k_gse: the long-range grid pipeline and SHAKE/RATTLE live here;
     no RNG, tables or bonded terms run;
   - chain10k_tables: the paper's generality mechanism (compiled machine
     tables) on one slot with bonded and 1-4 terms; set-up heavy (table
     compile + minimize) and the single-threaded baseline an Exec change
     should not move. *)

module E = Mdsp_md.Engine
module W = Mdsp_workload.Workloads
module P = Mdsp_ff.Pair_interactions

type kind = Lj4k | Water6k_gse | Chain10k_tables

type t = {
  name : string;
  kind : kind;
  pooled : bool;  (** run on the shared pool, else on one slot *)
  config : E.config;
  elec : P.electrostatics;
  gse_points : int;  (** GSE grid points per edge; 0 = no grid solver *)
  minimize_steps : int;
  warmup_steps : int;
}

let cutoff = 9.0
let table_intervals = 2048

let base = { E.default_config with dt_fs = 2.0; temperature = 300. }

let lj4k =
  {
    name = "lj4k";
    kind = Lj4k;
    pooled = true;
    config = { base with thermostat = E.Langevin { gamma_fs = 0.02 } };
    elec = P.No_coulomb;
    gse_points = 0;
    minimize_steps = 0;
    warmup_steps = 50;
  }

(* A 32^3 grid is ~1.26 A spacing on the 40.4 A box; at 16^3 the
   reciprocal forces are wrong by more than their own size, which the
   GSE-vs-Ewald check must catch (the [gse16] self-test). The lattice start
   heats to ~870 K within 40 fs, so the warm-up covers that transient. *)
let water6k_gse =
  {
    name = "water6k_gse";
    kind = Water6k_gse;
    pooled = true;
    config = { base with thermostat = E.Berendsen { tau_fs = 100. } };
    elec = P.Ewald_real { beta = 3.0 /. cutoff };
    gse_points = 32;
    minimize_steps = 0;
    warmup_steps = 20;
  }

(* Without minimization the bead chain blows up within a few dozen steps
   (the [nomin] self-test); 40 steepest-descent steps keep it bounded. *)
let chain10k_tables =
  {
    name = "chain10k_tables";
    kind = Chain10k_tables;
    pooled = false;
    config = { base with thermostat = E.Nose_hoover { tau_fs = 100. } };
    elec = P.Reaction_field { epsilon_rf = 78.5 };
    gse_points = 0;
    minimize_steps = 40;
    warmup_steps = 20;
  }

let all = [ lj4k; water6k_gse; chain10k_tables ]

(* Deliberately broken variants the output checks must fail on. *)
let self_tests =
  [
    ("gse16", { water6k_gse with name = "water6k_gse16"; gse_points = 16 });
    ("nomin", { chain10k_tables with name = "chain10k_nomin"; minimize_steps = 0 });
  ]

let of_name name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None ->
      failwith
        (Printf.sprintf "unknown workload %S (one of %s)" name
           (String.concat ", " (List.map (fun w -> w.name) all)))

(* The structure is the named preset; the seed drives the initial
   velocities and the thermostat noise ([make_engine ~seed]). *)
let build_system w =
  W.of_name
    (match w.kind with
    | Lj4k -> "lj4000"
    | Water6k_gse -> "water6k"
    | Chain10k_tables -> "chain10k")

let gse_grid w =
  if w.gse_points > 0 then Some (w.gse_points, w.gse_points, w.gse_points)
  else None

let uses_tables w = w.kind = Chain10k_tables

let types (sys : W.system) =
  Array.map (fun (a : Mdsp_ff.Topology.atom) -> a.type_id) sys.topo.atoms

let compile_tables w (sys : W.system) =
  Mdsp_core.Table.table_set_of_topology sys.topo ~cutoff ~elec:w.elec
    ~n:table_intervals ()

let table_evaluator (sys : W.system) ts =
  Mdsp_machine.Htis.evaluator ts ~types:(types sys)
    ~charges:(Mdsp_ff.Topology.charges sys.topo) ~cutoff

let analytic_evaluator w (sys : W.system) =
  P.of_topology sys.topo ~cutoff ~trunc:Mdsp_ff.Nonbonded.Shift ~elec:w.elec

let make_engine w ~exec ~seed sys =
  W.make_engine ~config:w.config ~cutoff ~elec:w.elec ?gse_grid:(gse_grid w)
    ~seed ~exec sys

(* A workload ready to step. [sys] keeps the generated system (topology,
   box, initial positions); [parts] is the set-up time by stage. *)
type ready = {
  spec : t;
  seed : int;
  exec : Mdsp_util.Exec.t;
  sys : W.system;
  eng : E.t;
  tables : Mdsp_machine.Htis.table_set option;
  parts : (string * float) list;
  setup_s : float;
}

(* Set-up: preset build + engine creation + table compile + minimize, up to
   the first force evaluation the first step will use. *)
let setup w ~exec ~seed =
  let t0 = Clock.now_ns () in
  let sys, build_s = Clock.timed "setup.build" (fun () -> build_system w) in
  let eng, engine_s =
    Clock.timed "setup.engine" (fun () -> make_engine w ~exec ~seed sys)
  in
  let tables, compile_s =
    if uses_tables w then begin
      let ts, s =
        Clock.timed "setup.table_compile" (fun () -> compile_tables w sys)
      in
      Clock.span "setup.table_install" (fun () ->
          Mdsp_md.Force_calc.set_evaluator (E.force_calc eng)
            (table_evaluator sys ts);
          E.refresh_forces eng);
      (Some ts, s)
    end
    else (None, 0.)
  in
  let (), minimize_s =
    Clock.timed "setup.minimize" (fun () ->
        if w.minimize_steps > 0 then E.minimize eng ~steps:w.minimize_steps)
  in
  let setup_s = Clock.seconds_between t0 (Clock.now_ns ()) in
  {
    spec = w;
    seed;
    exec;
    sys;
    eng;
    tables;
    parts =
      [
        ("setup.build_s", build_s);
        ("setup.engine_s", engine_s);
        ("table.compile_s", compile_s);
        ("setup.minimize_s", minimize_s);
      ];
    setup_s;
  }

(* An independent engine on a copy of [r]'s current frame, on [exec], with
   the workload's evaluator. The probes time this one, so the measured
   trajectory is untouched. *)
let copy_engine r ~exec =
  let positions = Array.copy (E.state r.eng).Mdsp_md.State.positions in
  let sys = { r.sys with W.positions } in
  let eng = make_engine r.spec ~exec ~seed:r.seed sys in
  Option.iter
    (fun ts ->
      Mdsp_md.Force_calc.set_evaluator (E.force_calc eng) (table_evaluator sys ts);
      E.refresh_forces eng)
    r.tables;
  eng
