(* Layer probes for the traced run. Each probe times direct calls into one
   library's public functions, inside benchmark-side spans, on copies of the
   workload's current frame (fresh lists, accumulators, solvers and
   engines), so the measured trajectory is never perturbed. A layer the
   workload does not exercise is reported absent ([None]).

   Layers and the public calls they are timed through:
   - mdsp_workload / mdsp_md set-up: the [Spec.setup] stages;
   - mdsp_md: [Engine.refresh_forces], Gc counters around [Engine.run];
   - mdsp_md Constraints: [Constraints.shake] / [rattle] / [max_violation];
   - mdsp_space: [Neighbor_list.rebuild] / [length] / [rebuild_count];
   - mdsp_ff: [Pair_interactions.compute] (analytic evaluator), [Bonded.all];
   - mdsp_longrange: [Gse.reciprocal ~phases], against [Ewald.reciprocal];
   - mdsp_machine: [Pair_interactions.compute] with [Htis.evaluator],
     [Htis.compute_forces];
   - mdsp_core: [Table.table_set_of_topology] (timed during set-up);
   - mdsp_util: [Exec.parallel_run], [Rng.gaussian]. *)

open Mdsp_util
module E = Mdsp_md.Engine
module P = Mdsp_ff.Pair_interactions
module NL = Mdsp_space.Neighbor_list

(* name, unit: the per-layer metrics, in report order. *)
let metrics =
  [
    ("setup.build_s", "s");
    ("setup.engine_s", "s");
    ("setup.minimize_s", "s");
    ("table.compile_s", "s");
    ("engine.minor_words_per_step", "words");
    ("engine.major_gcs_per_kstep", "count");
    ("force.us", "us");
    ("step.nonforce_us", "us");
    ("step.traced_us_p50", "us");
    ("trace.overhead_us", "us");
    ("constraints.shake_us", "us");
    ("constraints.rattle_us", "us");
    ("constraints.ns_per_cluster", "ns");
    ("constraints.max_violation", "ratio");
    ("nlist.rebuild_us", "us");
    ("nlist.pairs", "count");
    ("nlist.rebuilds_per_kstep", "count");
    ("pair.us", "us");
    ("pair.ns_per_pair", "ns");
    ("pair.minor_words_per_call", "words");
    ("bonded.us", "us");
    ("bonded.ns_per_term", "ns");
    ("gse.spread_us", "us");
    ("gse.fft_us", "us");
    ("gse.convolve_us", "us");
    ("gse.gather_us", "us");
    ("gse.force_rel_err", "ratio");
    ("htis.table_ns_per_pair", "ns");
    ("htis.fixed_ns_per_pair", "ns");
    ("htis.saturations", "count");
    ("exec.barrier_us", "us");
    ("exec.speedup.force", "x");
    ("exec.speedup.pair", "x");
    ("exec.speedup.nlist", "x");
    ("exec.speedup.gse", "x");
    ("exec.speedup.constraints", "x");
    ("rng.ns_per_gaussian", "ns");
  ]

let max_reps = 9

(* Median seconds of timed calls after one untimed warm-up call: as many
   calls as fit in about a second, 3 to [max_reps]. [prepare] runs before
   each call, outside the timing. *)
let time_call ?(prepare = ignore) name f =
  prepare ();
  let t0 = Clock.now_ns () in
  ignore (f ());
  let first = Clock.seconds_between t0 (Clock.now_ns ()) in
  let reps = max 3 (min max_reps (int_of_float (1.0 /. first))) in
  Clock.median
    (Array.init reps (fun _ ->
         prepare ();
         snd (Clock.timed name (fun () -> ignore (f ())))))

let us s = s *. 1e6

(* What the step-window phase of the traced run hands to the probes. *)
type window_stats = {
  untraced_p50_us : float;
  traced_p50_us : float;
  rebuilds_per_kstep : float;
  gse_rel_err : float option;  (** from the GSE-vs-Ewald check *)
}

(* Gc counters around [Engine.run] on the live engine, after the measured
   windows (it only continues the trajectory). Counted on the calling
   domain. *)
let gc_probe eng ~steps =
  let s0 = Gc.quick_stat () in
  Clock.span "engine.run" (fun () -> E.run eng steps);
  let s1 = Gc.quick_stat () in
  let per = float_of_int steps in
  ( (s1.minor_words -. s0.minor_words) /. per,
    float_of_int (s1.major_collections - s0.major_collections) /. per *. 1000. )

let run (r : Spec.ready) (ws : window_stats) =
  let w = r.spec and sys = r.sys in
  let topo = sys.topo in
  let st = E.state r.eng in
  let box = st.Mdsp_md.State.box in
  let pos = Array.copy st.Mdsp_md.State.positions in
  let vel = Array.copy st.Mdsp_md.State.velocities in
  let masses = Array.copy st.Mdsp_md.State.masses in
  let n = Array.length pos in
  let pool = r.exec and serial = Exec.serial in
  let nslots = Exec.n_slots pool in
  let parallel = nslots > 1 in
  (* 1-slot time over pool time of the same call; absent on one slot. *)
  let speedup t_pool at_one_slot =
    if parallel then Some (at_one_slot () /. t_pool) else None
  in
  let out = Hashtbl.create 64 in
  let set k v = Hashtbl.replace out k v in
  let part k = List.assoc k r.parts in
  set "setup.build_s" (Some (part "setup.build_s"));
  set "setup.engine_s" (Some (part "setup.engine_s"));
  set "setup.minimize_s"
    (if w.minimize_steps > 0 then Some (part "setup.minimize_s") else None);
  set "table.compile_s"
    (if Spec.uses_tables w then Some (part "table.compile_s") else None);
  set "step.traced_us_p50" (Some ws.traced_p50_us);
  set "trace.overhead_us" (Some (ws.traced_p50_us -. ws.untraced_p50_us));
  set "nlist.rebuilds_per_kstep" (Some ws.rebuilds_per_kstep);
  set "gse.force_rel_err" ws.gse_rel_err;
  (* mdsp_md: the full force evaluation, on engine copies. *)
  Clock.span "probe.force" (fun () ->
      let force exec =
        let eng = Spec.copy_engine r ~exec in
        time_call "force.refresh" (fun () -> E.refresh_forces eng)
      in
      let t_pool = force pool in
      set "force.us" (Some (us t_pool));
      set "step.nonforce_us" (Some (ws.untraced_p50_us -. us t_pool));
      set "exec.speedup.force" (speedup t_pool (fun () -> force serial)));
  (* mdsp_space: the neighbor list. *)
  let nl =
    Clock.span "probe.nlist" (fun () ->
        let make exec =
          NL.create ~exclusions:topo.exclusions ~exec ~cutoff:Spec.cutoff
            ~skin:1.0 box (Array.copy pos)
        in
        let rebuild exec =
          let nl = make exec in
          (nl, time_call "nlist.rebuild" (fun () -> NL.rebuild nl pos))
        in
        let nl, t_pool = rebuild pool in
        set "nlist.rebuild_us" (Some (us t_pool));
        set "nlist.pairs" (Some (float_of_int (NL.length nl)));
        set "exec.speedup.nlist" (speedup t_pool (fun () -> snd (rebuild serial)));
        nl)
  in
  let pairs = float_of_int (NL.length nl) in
  (* mdsp_ff: analytic pair kernel and bonded terms. *)
  Clock.span "probe.pair" (fun () ->
      let ev = Spec.analytic_evaluator w sys in
      let acc = Mdsp_ff.Bonded.make_accum n in
      let pair exec =
        let slots = Mdsp_ff.Bonded.make_slots ~slots:(Exec.n_slots exec) n in
        time_call "pair.compute" (fun () -> P.compute ~exec ~slots ev box nl pos acc)
      in
      let t_pool = pair pool in
      set "pair.us" (Some (us t_pool));
      set "pair.ns_per_pair" (Some (t_pool *. 1e9 /. pairs));
      set "exec.speedup.pair" (speedup t_pool (fun () -> pair serial));
      let w0 = Gc.minor_words () in
      ignore (P.compute ev box nl pos acc);
      set "pair.minor_words_per_call" (Some (Gc.minor_words () -. w0)));
  Clock.span "probe.bonded" (fun () ->
      let acc = Mdsp_ff.Bonded.make_accum n in
      let slots = Mdsp_ff.Bonded.make_slots ~slots:nslots n in
      let t =
        time_call "bonded.all" (fun () -> Mdsp_ff.Bonded.all ~exec:pool ~slots box topo pos acc)
      in
      let terms = Mdsp_ff.Bonded.term_count topo in
      set "bonded.us" (Some (us t));
      set "bonded.ns_per_term"
        (if terms > 0 then Some (t *. 1e9 /. float_of_int terms) else None));
  (* mdsp_longrange: the GSE grid pipeline, one fresh solver per executor. *)
  (match (Spec.gse_grid w, w.elec) with
  | Some grid, P.Ewald_real { beta } ->
      Clock.span "probe.gse" (fun () ->
          let charges = Mdsp_ff.Topology.charges topo in
          let acc = Mdsp_ff.Bonded.make_accum n in
          let recip exec =
            let gse = Mdsp_longrange.Gse.create ~beta ~grid box in
            (* One phase record per call; record 0 is the warm-up's. *)
            let phases =
              Array.init (max_reps + 1) (fun _ -> Mdsp_longrange.Gse.zero_phases ())
            in
            let k = ref (-1) in
            let t =
              time_call "gse.reciprocal"
                ~prepare:(fun () -> incr k)
                (fun () ->
                  Mdsp_longrange.Gse.reciprocal ~exec ~phases:phases.(!k) gse charges pos acc)
            in
            (t, Array.sub phases 1 !k)
          in
          let t_pool, ph = recip pool in
          let med f = Some (us (Clock.median (Array.map f ph))) in
          let open Mdsp_longrange.Gse in
          set "gse.spread_us" (med (fun p -> p.spread_s));
          set "gse.fft_us" (med (fun p -> p.fft_s));
          set "gse.convolve_us" (med (fun p -> p.convolve_s));
          set "gse.gather_us" (med (fun p -> p.gather_s));
          set "exec.speedup.gse" (speedup t_pool (fun () -> fst (recip serial))))
  | _ -> ());
  (* mdsp_md Constraints: SHAKE after an unconstrained drift, RATTLE on the
     frame's velocities; a fresh solver on copies. *)
  if Array.length topo.constraints > 0 then
    Clock.span "probe.constraints" (fun () ->
        let cons = Mdsp_md.Constraints.create topo in
        let dt = Units.fs w.config.E.dt_fs in
        let drifted = Array.mapi (fun i x -> Vec3.axpy dt vel.(i) x) pos in
        let x = Array.copy drifted and v = Array.copy vel in
        let shake exec =
          time_call "constraints.shake"
            ~prepare:(fun () -> Array.blit drifted 0 x 0 n)
            (fun () -> Mdsp_md.Constraints.shake ~exec cons box ~prev:pos x ~masses)
        in
        let t_pool = shake pool in
        let t_rattle =
          time_call "constraints.rattle"
            ~prepare:(fun () -> Array.blit vel 0 v 0 n)
            (fun () -> Mdsp_md.Constraints.rattle ~exec:pool cons box pos v ~masses)
        in
        set "constraints.shake_us" (Some (us t_pool));
        set "constraints.rattle_us" (Some (us t_rattle));
        set "constraints.ns_per_cluster"
          (Some (t_pool *. 1e9 /. float_of_int (Mdsp_md.Constraints.n_clusters cons)));
        set "constraints.max_violation"
          (Some (Mdsp_md.Constraints.max_violation cons box st.Mdsp_md.State.positions));
        set "exec.speedup.constraints" (speedup t_pool (fun () -> shake serial)));
  (* mdsp_machine: the table pipeline, float evaluator and fixed-point. *)
  (match r.tables with
  | Some ts ->
      Clock.span "probe.htis" (fun () ->
          let acc = Mdsp_ff.Bonded.make_accum n in
          let ev = Spec.table_evaluator sys ts in
          let t =
            time_call "htis.evaluator" (fun () -> P.compute ~exec:pool ev box nl pos acc)
          in
          set "htis.table_ns_per_pair" (Some (t *. 1e9 /. pairs));
          let types = Spec.types sys and charges = Mdsp_ff.Topology.charges topo in
          let sat = ref 0 in
          let t_fixed =
            time_call "htis.compute_forces" (fun () ->
                let res =
                  Mdsp_machine.Htis.compute_forces ts ~types ~charges
                    ~cutoff:Spec.cutoff box nl pos
                in
                sat := res.saturations)
          in
          set "htis.fixed_ns_per_pair" (Some (t_fixed *. 1e9 /. pairs));
          set "htis.saturations" (Some (float_of_int !sat)))
  | None -> ());
  (* mdsp_util: pool barrier and the Gaussian generator. *)
  if parallel then
    Clock.span "probe.exec" (fun () ->
        let calls = 200 in
        let t =
          time_call "exec.barrier" (fun () ->
              for _ = 1 to calls do
                Exec.parallel_run pool (fun _ -> ())
              done)
        in
        set "exec.barrier_us" (Some (us t /. float_of_int calls)));
  Clock.span "probe.rng" (fun () ->
      let rng = Rng.create r.seed in
      let draws = 100_000 in
      let sink = ref 0. in
      let t =
        time_call "rng.gaussian" (fun () ->
            for _ = 1 to draws do
              sink := !sink +. Rng.gaussian rng
            done)
      in
      set "rng.ns_per_gaussian" (Some (t *. 1e9 /. float_of_int draws)));
  (* Gc around Engine.run, last: it continues the live trajectory. *)
  let gc_steps = max 5 (int_of_float (2e6 /. ws.untraced_p50_us)) in
  let words, majors = gc_probe r.eng ~steps:gc_steps in
  set "engine.minor_words_per_step" (Some words);
  set "engine.major_gcs_per_kstep" (Some majors);
  List.map
    (fun (name, unit) ->
      (name, unit, Option.join (Hashtbl.find_opt out name)))
    metrics

(* The Perf model's per-resource step time for this workload on the
   default machine configuration, in microseconds, with the per-layer
   metrics whose sum is the host's nearest measured counterpart. *)
let model_rows (r : Spec.ready) =
  let open Mdsp_machine in
  let wl =
    Perf.of_system ~dt_fs:r.spec.config.E.dt_fs ?fft_grid:(Spec.gse_grid r.spec)
      r.sys.topo r.sys.box
  in
  let b = Perf.step_time (Config.anton_like ()) wl in
  [
    ("htis (pair pipelines)", b.htis_s, [ "pair.us" ]);
    ("flex (bonded + integration)", b.flex_s, [ "bonded.us"; "step.nonforce_us" ]);
    ("comm", b.comm_s, []);
    ("fft (long range)", b.fft_s,
      [ "gse.spread_us"; "gse.fft_us"; "gse.convolve_us"; "gse.gather_us" ]);
    ("  lr.spread", b.lr_spread_s, [ "gse.spread_us" ]);
    ("  lr.fft", b.lr_fft_s, [ "gse.fft_us" ]);
    ("  lr.convolve", b.lr_convolve_s, [ "gse.convolve_us" ]);
    ("  lr.gather", b.lr_gather_s, [ "gse.gather_us" ]);
    ("sync", b.sync_s, [ "exec.barrier_us" ]);
    ("step", b.step_s, [ "step.traced_us_p50" ]);
  ]
  |> List.map (fun (k, s, keys) -> (k, us s, keys))
