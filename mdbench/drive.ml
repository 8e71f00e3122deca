(* The end-to-end runner: set-up, warm-up, the timed step window and the
   output checks, through the engine-level API only. It knows nothing of the
   layer probes, so a change inside a layer only ever has to edit a probe. *)

module E = Mdsp_md.Engine

(* Set up from scratch at least 3 times, and more (up to 15) while the
   set-ups so far took under 2 s. Only the last engine is kept alive, so
   earlier set-ups do not add to the peak RSS; the result carries the
   median of each stage. *)
let setup w ~exec ~seed =
  let t0 = Clock.now_ns () in
  let rec go timings k =
    Gc.compact ();
    let r = Clock.span "setup" (fun () -> Spec.setup w ~exec ~seed) in
    let timings = (r.Spec.setup_s, r.parts) :: timings in
    if k + 1 >= 15 || (k + 1 >= 3 && Clock.seconds_between t0 (Clock.now_ns ()) >= 2.)
    then (r, timings)
    else go timings (k + 1)
  in
  let last, timings = go [] 0 in
  let median f = Clock.median (Array.of_list (List.map f timings)) in
  let parts = List.map (fun (k, _) -> (k, median (fun (_, p) -> List.assoc k p))) last.parts in
  { last with parts; setup_s = median fst }

type window = {
  steps_us : float array;  (** wall time of each [Engine.step] *)
  error : string option;  (** the exception that ended the window early *)
}

(* Step until [seconds] have passed and at least [min_steps] steps ran.
   An exception ends the window; the caller counts it as a failed check. *)
let run_window eng ~seconds ~min_steps =
  let buf = ref [] and n = ref 0 in
  let t0 = Clock.now_ns () in
  let error =
    try
      while Clock.seconds_between t0 (Clock.now_ns ()) < seconds || !n < min_steps do
        let (), dt = Clock.timed ~step:(E.steps_done eng) "engine.step" (fun () -> E.step eng) in
        buf := (dt *. 1e6) :: !buf;
        incr n
      done;
      None
    with e -> Some (Checks.describe_exn e)
  in
  { steps_us = Array.of_list (List.rev !buf); error }

let window_checked checks eng ~name ~seconds ~min_steps =
  let w = Clock.span name (fun () -> run_window eng ~seconds ~min_steps) in
  (match w.error with
  | None -> ()
  | Some msg -> Checks.record checks ("steps." ^ name) ~ok:false msg);
  Checks.finite checks eng ~after:name;
  w

(* Simulated ns per wall day over the timed window, rebuild steps
   included. *)
let ns_per_day (w : Spec.t) win =
  let wall_s = Array.fold_left ( +. ) 0. win.steps_us *. 1e-6 in
  float_of_int (Array.length win.steps_us) *. w.config.E.dt_fs *. 1e-6 /. wall_s *. 86400.

(* Process peak resident set (VmHWM), so Bigarray stores count too. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
          (fun kb -> kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let min_steps = 20

(* Checks on the frame the timed window started from. They build their own
   solvers, lists and engines, so they may run after the window. Returns
   the GSE reciprocal force error when the workload has a grid solver. *)
let frame_checks checks (r : Spec.ready) fr =
  let sys = r.sys in
  match r.spec.kind with
  | Spec.Lj4k ->
      Checks.lj_bruteforce checks sys ~cutoff:Spec.cutoff fr;
      None
  | Spec.Water6k_gse ->
      let beta =
        match r.spec.elec with
        | Mdsp_ff.Pair_interactions.Ewald_real { beta } -> beta
        | _ -> invalid_arg "water6k_gse: expected Ewald_real"
      in
      let grid = Option.get (Spec.gse_grid r.spec) in
      Some (Checks.gse_vs_ewald checks ~exec:r.exec ~beta ~grid sys.topo fr)
  | Spec.Chain10k_tables ->
      let ts = Option.get r.tables in
      let frame_sys = { sys with Mdsp_workload.Workloads.positions = fr.positions } in
      let analytic =
        Spec.make_engine r.spec ~exec:Mdsp_util.Exec.serial ~seed:r.seed frame_sys
      in
      Checks.tables_vs_analytic checks ~analytic
        ~evaluator:(Spec.analytic_evaluator r.spec sys) fr;
      Checks.htis_saturations checks ~ts ~types:(Spec.types sys)
        ~charges:(Mdsp_ff.Topology.charges sys.topo) ~cutoff:Spec.cutoff
        ~nlist:(Mdsp_md.Force_calc.nlist (E.force_calc analytic))
        fr;
      None

let state_checks checks (r : Spec.ready) =
  if Mdsp_md.Constraints.count (E.constraints r.eng) > 0 then
    Checks.constraints checks r.eng
