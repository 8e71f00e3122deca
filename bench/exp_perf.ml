(* Experiments E4-E7: the machine performance model — absolute rates vs
   the commodity baseline, strong scaling, and per-method overheads. *)

open Bench_common
open Mdsp_machine

let water_density = 0.1002
let dt_fs = 2.5

let workload n =
  {
    (Perf.plain_workload ~n_atoms:n ~density:water_density ~cutoff:9.0 ~dt_fs) with
    Perf.n_constraints = n;
    (* rigid waters: one constraint cluster per 3 atoms -> ~n constraints *)
    fft_grid =
      (let g = Mdsp_longrange.Fft.next_pow2 (int_of_float ((float_of_int n /. water_density) ** (1. /. 3.))) in
       Some (g, g, g));
  }

(* E4 (Fig. 2): simulation rate vs system size, machine vs cluster. *)
let e4 () =
  section "E4" "Simulation rate vs system size (Fig. 2)";
  let machine = Config.anton_like () in
  let cluster = Mdsp_baseline.Cluster.commodity () in
  let t =
    T.create
      ~title:
        "ns/day, water-like systems (512-node machine vs 64-node cluster)"
      ~columns:
        [
          ("atoms", T.Right);
          ("machine ns/day", T.Right);
          ("cluster ns/day", T.Right);
          ("speedup", T.Right);
        ]
  in
  List.iter
    (fun n ->
      let w = workload n in
      let m = Perf.ns_per_day machine w in
      let c = Mdsp_baseline.Cluster.ns_per_day cluster w in
      T.row t
        [
          T.cell_i n;
          T.cell_f ~prec:4 m;
          T.cell_f ~prec:4 c;
          Printf.sprintf "%.0fx" (m /. c);
        ])
    [ 6_000; 12_000; 23_500; 46_000; 92_000; 184_000; 368_000 ];
  T.print t;
  note
    "Shape reproduced: the special-purpose machine wins by one to two\n\
     orders of magnitude, with the edge largest for small systems where\n\
     cluster latency dominates.\n"

(* E5 (Fig. 3): strong scaling at fixed workload. *)
let e5 () =
  section "E5" "Strong scaling, 23.5k-atom system (Fig. 3)";
  let w = workload 23_500 in
  let t =
    T.create ~title:"ns/day vs machine size"
      ~columns:
        [
          ("nodes", T.Right);
          ("ns/day", T.Right);
          ("speedup vs 8", T.Right);
          ("parallel efficiency", T.Right);
        ]
  in
  let base = ref None in
  List.iter
    (fun (nodes, label) ->
      let cfg = Config.anton_like ~nodes () in
      let r = Perf.ns_per_day cfg w in
      let b =
        match !base with
        | None ->
            base := Some (float_of_int label, r);
            (float_of_int label, r)
        | Some b -> b
      in
      let speedup = r /. snd b in
      let ideal = float_of_int label /. fst b in
      T.row t
        [
          T.cell_i label;
          T.cell_f ~prec:4 r;
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.0f%%" (100. *. speedup /. ideal);
        ])
    [
      ((2, 2, 2), 8);
      ((4, 2, 2), 16);
      ((4, 4, 2), 32);
      ((4, 4, 4), 64);
      ((8, 4, 4), 128);
      ((8, 8, 4), 256);
      ((8, 8, 8), 512);
    ];
  T.print t;
  note
    "Scaling rolls over as per-node work shrinks against fixed\n\
     synchronization and long-range costs — the expected strong-scaling\n\
     shape for a fixed-size problem.\n"

let method_costs () =
  let cv = Mdsp_core.Cv.distance ~i:0 ~j:1 in
  let meta =
    Mdsp_core.Metadynamics.create ~cv ~sigma:0.3 ~height:0.1 ~stride:100
      ~temp:300. ()
  in
  let smd = Mdsp_core.Smd.create ~cv ~k:10. ~start:0. ~speed_per_step:1e-4 () in
  let temper =
    Mdsp_core.Tempering.create ~temps:[| 300.; 320.; 340. |] ~stride:200 ()
  in
  let tamd =
    Mdsp_core.Tamd.create ~cv ~k:50. ~s0:0. ~gamma:0.05 ~s_temp:900. ~seed:1 ()
  in
  let amd = Mdsp_core.Amd.create ~threshold:0. ~alpha:1. in
  let posre =
    Mdsp_core.Restraints.position ~name:"posre"
      ~particles:(Array.init 200 Fun.id) ~k:2.
      ~reference:Mdsp_util.Vec3.zero
  in
  (* A 20-atom dummy solute for the FEP cost model. *)
  let sys20 = Mdsp_workload.Workloads.lj_fluid ~n:20 () in
  let fep_info =
    Mdsp_core.Fep.make_info sys20.Mdsp_workload.Workloads.topo
      ~solute:(Array.init 20 (fun i -> i < 2))
      ~cutoff:9. ~elec:Mdsp_ff.Pair_interactions.No_coulomb
  in
  [
    Mdsp_core.Mapping.plain;
    Mdsp_core.Mapping.of_restraint posre;
    Mdsp_core.Mapping.of_smd smd;
    Mdsp_core.Mapping.of_metadynamics meta;
    Mdsp_core.Mapping.of_tempering temper;
    Mdsp_core.Mapping.of_tamd tamd;
    Mdsp_core.Mapping.of_amd amd ~n_atoms:23_500;
    Mdsp_core.Mapping.of_fep fep_info;
  ]

(* E6 (Table III): per-method performance overhead. *)
let e6 () =
  section "E6" "Method overhead on the machine (Table III)";
  let cfg = Config.anton_like () in
  let base = workload 23_500 in
  let rows = Mdsp_core.Mapping.table cfg base (method_costs ()) in
  let t =
    T.create ~title:"Extended methods vs plain MD, 23.5k atoms, 512 nodes"
      ~columns:
        [ ("method", T.Left); ("ns/day", T.Right); ("overhead", T.Right) ]
  in
  List.iter
    (fun r ->
      T.row t
        [
          r.Mdsp_core.Mapping.name;
          T.cell_f ~prec:4 r.Mdsp_core.Mapping.ns_per_day;
          Printf.sprintf "%.2f%%" r.Mdsp_core.Mapping.overhead_pct;
        ])
    rows;
  T.print t;
  note
    "The headline of the paper: the extended methods ride on the\n\
     programmable cores and per-window tables, so their cost over plain MD\n\
     is small (FEP pays for its extra table pass).\n"

(* A time in microseconds to three significant figures, without an
   exponent: 16234 -> "16200", 19.84 -> "19.8", 0.1284 -> "0.128". *)
let sig3 x =
  if x = 0. || not (Float.is_finite x) then Printf.sprintf "%g" x
  else begin
    let e = int_of_float (Float.floor (Float.log10 (Float.abs x))) in
    let scale = 10. ** float_of_int (e - 2) in
    Printf.sprintf "%.*f" (max 0 (2 - e)) (Float.round (x /. scale) *. scale)
  end

(* E21: the live E7 — run the actual force pipeline on the Serial and
   Domains execution backends, measure wall time per resource phase, and
   set the measured breakdown next to the analytic machine model. *)
let e21 () =
  section "E21"
    "Execution backends: measured per-resource step times (live Fig. 4)";
  let module X = Mdsp_util.Exec in
  let module FC = Mdsp_md.Force_calc in
  let module Clk = Mdsp_util.Timer in
  let module NL = Mdsp_space.Neighbor_list in
  (* Per-step seconds of a phase (or of the clock's total). *)
  let per clock name = Clk.per_tick clock (Clk.seconds clock name) in
  let per_total clock = Clk.per_tick clock (Clk.total clock) in
  let n = 4000 and steps = 10 and ndomains = 4 in
  let sys = Mdsp_workload.Workloads.lj_fluid ~n () in
  let cfg =
    {
      Mdsp_md.Engine.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = Mdsp_md.Engine.Langevin { gamma_fs = 0.02 };
    }
  in
  let measure exec =
    let eng =
      Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:42 ~exec sys
    in
    Mdsp_md.Engine.run eng 2;
    (* measure from a warm neighbor list *)
    Mdsp_md.Engine.reset_clock eng;
    let nl = FC.nlist (Mdsp_md.Engine.force_calc eng) in
    let r0 = NL.rebuild_count nl in
    let w0 = Gc.minor_words () in
    Mdsp_md.Engine.run eng steps;
    let w1 = Gc.minor_words () in
    (eng, NL.rebuild_count nl - r0, (w1 -. w0) /. float_of_int steps)
  in
  let eng_serial, rebuilds_serial, words_step = measure X.serial in
  let fc_serial = Mdsp_md.Engine.force_calc eng_serial in
  let cs = FC.clock fc_serial in
  let nlist = FC.nlist fc_serial in
  let npairs = NL.length nlist in
  let pool = X.create (X.Domains { n = ndomains }) in
  let eng_par, rebuilds_par, _ = measure pool in
  let cp = Mdsp_md.Engine.clock eng_par in
  X.shutdown pool;
  (* The boxed reference kernels ([Bonded.all], [compute_pairs14],
     [Pair_interactions.compute] over the analytic evaluator), timed
     directly on the serial engine's last frame and neighbor list. *)
  let ref_bonded_s, ref_pair_s, ref_words =
    let st = Mdsp_md.Engine.state eng_serial in
    let box = st.Mdsp_md.State.box and pos = st.Mdsp_md.State.positions in
    let topo = FC.topology fc_serial in
    let cutoff = Mdsp_space.Neighbor_list.cutoff nlist in
    let evaluator =
      Mdsp_ff.Pair_interactions.of_topology topo ~cutoff
        ~trunc:Mdsp_ff.Nonbonded.Shift
        ~elec:Mdsp_ff.Pair_interactions.No_coulomb
    in
    let acc = Mdsp_ff.Bonded.make_accum (Mdsp_md.State.n st) in
    let bonded = ref 0. and pair = ref 0. and words = ref 0. in
    for _ = 1 to steps do
      Mdsp_ff.Bonded.reset acc;
      let t0 = Mdsp_util.Timer.now () in
      ignore (Mdsp_ff.Bonded.all box topo pos acc);
      let t1 = Mdsp_util.Timer.now () in
      let w0 = Gc.minor_words () in
      ignore (Mdsp_ff.Pair_interactions.compute_pairs14 topo ~cutoff box pos acc);
      ignore (Mdsp_ff.Pair_interactions.compute evaluator box nlist pos acc);
      let w1 = Gc.minor_words () in
      pair := !pair +. Mdsp_util.Timer.since t1;
      bonded := !bonded +. (t1 -. t0);
      words := !words +. (w1 -. w0)
    done;
    let k = float_of_int steps in
    (!bonded /. k, !pair /. k, !words /. k)
  in
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "measured per-step phase times, %d-atom LJ fluid (%d pairs)" n
           npairs)
      ~columns:
        [
          ("phase", T.Left);
          ("serial (us)", T.Right);
          (Printf.sprintf "%d domains (us)" ndomains, T.Right);
          ("speedup", T.Right);
        ]
  in
  let us x = sig3 (x *. 1e6) in
  let speedup a b = if b > 0. then Printf.sprintf "%.2fx" (a /. b) else "-" in
  let phase name a b = T.row t [ name; us a; us b; speedup a b ] in
  (* One row per phase the serial clock recorded, children indented under
     their root; the rebuild count follows the neighbor group, so a zero
     build time reads as "no rebuild in the window". *)
  let depth name =
    String.fold_left (fun d c -> if c = '.' then d + 1 else d) 0 name
  in
  let entries = Clk.entries cs in
  let neighbor_last =
    if List.mem_assoc "neighbor.build" entries then "neighbor.build"
    else "neighbor"
  in
  List.iter
    (fun (name, _) ->
      phase (String.make (2 * depth name) ' ' ^ name) (per cs name)
        (per cp name);
      if name = neighbor_last then
        T.row t
          [
            "  rebuilds in window (count)";
            string_of_int rebuilds_serial;
            string_of_int rebuilds_par;
            "";
          ])
    entries;
  phase "total" (per_total cs) (per_total cp);
  T.print t;
  (* The engine's flat (SoA) kernels against the boxed reference kernels on
     the same frame: bitwise-identical results (test_parallel proves it),
     so any delta is pure data-layout/allocation effect. The serial flat
     pair window is Gc-metered and must not allocate. *)
  let t_soa =
    T.create
      ~title:"flat (SoA) kernels vs boxed reference kernels, same workload"
      ~columns:
        [
          ("phase", T.Left);
          ("boxed serial (us)", T.Right);
          ("SoA serial (us)", T.Right);
          ("SoA speedup", T.Right);
          (Printf.sprintf "SoA %d domains (us)" ndomains, T.Right);
        ]
  in
  let soa_phase name a b c = T.row t_soa [ name; us a; us b; speedup a b; us c ] in
  soa_phase "pair (pipelines)" ref_pair_s (per cs "pair") (per cp "pair");
  soa_phase "bonded (flex)" ref_bonded_s (per cs "bonded") (per cp "bonded");
  T.print t_soa;
  let soa_pair_words = Clk.per_tick cs (FC.pair_minor_words fc_serial) in
  note
    "allocation: %.0f minor words/step (whole step); boxed reference pair\n\
     kernels %.0f words/evaluation vs the flat pair window %.0f words/step\n\
     (the flat loops allocate nothing once warm).\n"
    words_step ref_words soa_pair_words;
  (* The sweeps the constraint-coloring certificate lets the pool run: a
     rigid water box drives SHAKE/RATTLE over the fused 3-atom clusters
     (one batch — the schedule [mdsp check --constraints] certifies) plus
     the Berendsen velocity rescale, serial vs domains. Bitwise identity
     between the two columns' trajectories is test_parallel's job; this
     table prices the sweeps. *)
  let cons_steps = 10 in
  let measure_cons exec =
    let sys = Mdsp_workload.Workloads.water_box ~n_side:8 () in
    let eng =
      Mdsp_workload.Workloads.make_engine
        ~config:
          {
            Mdsp_md.Engine.default_config with
            dt_fs = 1.0;
            temperature = 300.;
            thermostat = Mdsp_md.Engine.Berendsen { tau_fs = 100. };
          }
        ~seed:42 ~exec sys
    in
    Mdsp_md.Engine.run eng 2;
    Mdsp_md.Engine.reset_clock eng;
    Mdsp_md.Engine.run eng cons_steps;
    Mdsp_md.Engine.clock eng
  in
  let cons_serial = measure_cons X.serial in
  let pool = X.create (X.Domains { n = ndomains }) in
  let cons_par = measure_cons pool in
  X.shutdown pool;
  let cons_s = per cons_serial and cons_p = per cons_par in
  let t_cons =
    T.create
      ~title:
        "constraint + thermostat sweeps, 1536-atom rigid water box (1 batch)"
      ~columns:
        [
          ("phase", T.Left);
          ("serial (us)", T.Right);
          (Printf.sprintf "%d domains (us)" ndomains, T.Right);
          ("speedup", T.Right);
        ]
  in
  List.iter
    (fun (label, name) ->
      let a = cons_s name and b = cons_p name in
      T.row t_cons [ label; us a; us b; speedup a b ])
    [
      ("constraints (SHAKE/RATTLE)", "constraints");
      ("thermostat (rescale)", "thermostat");
      ("integrate (kick/drift)", "integrate");
    ];
  T.print t_cons;
  record "e21.constraints_serial_us" (cons_s "constraints" *. 1e6);
  record
    (Printf.sprintf "e21.constraints_domains%d_us" ndomains)
    (cons_p "constraints" *. 1e6);
  record "e21.constraints_speedup"
    (cons_s "constraints" /. Float.max 1e-12 (cons_p "constraints"));
  record "e21.thermostat_serial_us" (cons_s "thermostat" *. 1e6);
  record
    (Printf.sprintf "e21.thermostat_domains%d_us" ndomains)
    (cons_p "thermostat" *. 1e6);
  let pair_serial = per cs "pair" and pair_par = per cp "pair" in
  let integrate_serial = per cs "integrate" in
  let integrate_par = per cp "integrate" in
  let pair_speedup = pair_serial /. Float.max 1e-12 pair_par in
  let cores = X.recommended_domains () in
  if cores < ndomains then
    note
      "NOTE: host reports %d usable core(s); %d domains oversubscribe it,\n\
       so wall-clock speedup cannot manifest here. The tiled decomposition\n\
       and deterministic reduction are validated by test_parallel; rerun on\n\
       a multicore host for the scaling figure.\n"
      cores ndomains;
  record "e21.host_cores" (float_of_int cores);
  record "e21.npairs" (float_of_int npairs);
  record "e21.pair_serial_us" (pair_serial *. 1e6);
  record (Printf.sprintf "e21.pair_domains%d_us" ndomains) (pair_par *. 1e6);
  record "e21.pair_speedup" pair_speedup;
  record "e21.step_serial_us" (per_total cs *. 1e6);
  record (Printf.sprintf "e21.step_domains%d_us" ndomains)
    (per_total cp *. 1e6);
  record "e21.nbuild_serial_us" (per cs "neighbor.build" *. 1e6);
  record "e21.rebuilds_serial" (float_of_int rebuilds_serial);
  record "e21.integrate_serial_us" (integrate_serial *. 1e6);
  record
    (Printf.sprintf "e21.integrate_domains%d_us" ndomains)
    (integrate_par *. 1e6);
  record "e21.integrate_speedup"
    (integrate_serial /. Float.max 1e-12 integrate_par);
  record "e21.pair_soa_serial_us" (pair_serial *. 1e6);
  record
    (Printf.sprintf "e21.pair_soa_domains%d_us" ndomains)
    (pair_par *. 1e6);
  record "e21.pair_ref_serial_us" (ref_pair_s *. 1e6);
  record "e21.soa_pair_speedup" (ref_pair_s /. Float.max 1e-12 pair_serial);
  record "e21.soa_pair_minor_words_per_step" soa_pair_words;
  record "e21.ref_pair_minor_words_per_eval" ref_words;
  record "e21.step_minor_words_soa" words_step;
  (* The GSE grid pipeline — the stage the machine backs with dedicated
     long-range hardware: a charged water box with grid electrostatics,
     serial vs domains, broken into spread/fft/convolve/gather. *)
  let gse_grid = (16, 16, 16) in
  let gse_steps = 6 in
  let measure_gse exec =
    let sys = Mdsp_workload.Workloads.water_box ~n_side:4 () in
    let eng =
      Mdsp_workload.Workloads.make_engine
        ~config:
          {
            Mdsp_md.Engine.default_config with
            dt_fs = 1.0;
            temperature = 300.;
            thermostat = Mdsp_md.Engine.Langevin { gamma_fs = 0.02 };
          }
        ~seed:42 ~exec ~gse_grid sys
    in
    Mdsp_md.Engine.run eng 2;
    Mdsp_md.Engine.reset_clock eng;
    Mdsp_md.Engine.run eng gse_steps;
    (Mdsp_md.Engine.clock eng, sys)
  in
  let gse_serial, gse_sys = measure_gse X.serial in
  let pool = X.create (X.Domains { n = ndomains }) in
  let gse_par, _ = measure_gse pool in
  X.shutdown pool;
  let gx, gy, gz = gse_grid in
  let t_gse =
    T.create
      ~title:
        (Printf.sprintf
           "GSE grid pipeline sub-phases, 192-atom water box, %dx%dx%d grid"
           gx gy gz)
      ~columns:
        [
          ("phase", T.Left);
          ("serial (us)", T.Right);
          (Printf.sprintf "%d domains (us)" ndomains, T.Right);
          ("speedup", T.Right);
        ]
  in
  let gse_phase ~key label name =
    let a = per gse_serial name and b = per gse_par name in
    T.row t_gse [ label; us a; us b; speedup a b ];
    record (Printf.sprintf "e21.lr_%s_serial_us" key) (a *. 1e6);
    record (Printf.sprintf "e21.lr_%s_domains%d_us" key ndomains) (b *. 1e6)
  in
  List.iter
    (fun key -> gse_phase ~key key ("lr." ^ key))
    [ "spread"; "fft"; "convolve"; "gather" ];
  gse_phase ~key:"total" "long-range total" "lr";
  T.print t_gse;
  (* Allocation of one warm serial grid call, per charged atom: the
     separable stencil allocates only the updated force vectors plus a
     fixed per-call overhead, so a per-stencil-point regression shows up
     as thousands of words here. *)
  let lr_words_per_atom =
    let open Mdsp_workload.Workloads in
    let q = Mdsp_ff.Topology.charges gse_sys.topo in
    let pos = gse_sys.positions in
    let gse = Mdsp_longrange.Gse.create ~beta:0.4 ~grid:gse_grid gse_sys.box in
    let acc = Mdsp_ff.Bonded.make_accum (Array.length pos) in
    ignore (Mdsp_longrange.Gse.reciprocal gse q pos acc);
    let charged = Array.fold_left (fun k x -> if x <> 0. then k + 1 else k) 0 q in
    let w0 = Gc.minor_words () in
    ignore (Mdsp_longrange.Gse.reciprocal gse q pos acc);
    (Gc.minor_words () -. w0) /. float_of_int (max 1 charged)
  in
  note "serial grid call allocation: %.1f minor words per charged atom.\n"
    lr_words_per_atom;
  record "e21.lr_minor_words_per_atom" lr_words_per_atom;
  (* The analytic machine model for the grid workload, next to what we
     actually measured on the host backend — sub-phase rows included on
     both sides. *)
  let w =
    Perf.of_system ~dt_fs:1.0 ~fft_grid:gse_grid
      gse_sys.Mdsp_workload.Workloads.topo gse_sys.Mdsp_workload.Workloads.box
  in
  let b = Perf.step_time (Config.anton_like ()) w in
  let t2 =
    T.create ~title:"analytic 512-node model vs host measurement (per step)"
      ~columns:
        [ ("resource", T.Left); ("model (us)", T.Right); ("measured (us)", T.Right) ]
  in
  List.iter
    (fun r ->
      T.row t2
        [
          r.Perf.resource;
          (match r.Perf.model_s with
          | Some m -> T.cell_f ~prec:3 (m *. 1e6)
          | None -> "-");
          (match r.Perf.measured_s with
          | Some m -> us m
          | None -> "-");
        ])
    (Perf.resource_rows b gse_par);
  T.print t2;
  note "%s"
    (Printf.sprintf
       "Pair phase speedup at %d domains: %.2fx. The host runs the same\n\
        tiled pair sum the hardwired pipelines execute; the model columns\n\
        show how far a special-purpose 512-node machine pulls ahead.\n"
       ndomains pair_speedup)

(* E7 (Fig. 4): where the time goes, per method. *)
let e7 () =
  section "E7" "Per-step resource breakdown by method (Fig. 4)";
  let cfg = Config.anton_like () in
  let base = workload 23_500 in
  let t =
    T.create ~title:"Per-step time by machine resource (microseconds)"
      ~columns:
        [
          ("method", T.Left);
          ("pipelines", T.Right);
          ("flex cores", T.Right);
          ("network", T.Right);
          ("long-range", T.Right);
          ("sync", T.Right);
          ("step", T.Right);
        ]
  in
  List.iter
    (fun cost ->
      let w = Mdsp_core.Mapping.apply cost base in
      let b = Perf.step_time cfg w in
      let us x = sig3 (x *. 1e6) in
      T.row t
        [
          cost.Mdsp_core.Mapping.method_name;
          us b.Perf.htis_s;
          us b.Perf.flex_s;
          us b.Perf.comm_s;
          us b.Perf.fft_s;
          us b.Perf.sync_s;
          us b.Perf.step_s;
        ])
    (method_costs ());
  T.print t;
  note
    "Methods perturb mostly the flexible-subsystem column; the hardwired\n\
     pipeline time is untouched except by FEP's extra pass.\n"
