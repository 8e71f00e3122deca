(* Output checks. Every check is counted as attempted; one that returns
   false, or raises (a [Constraints.Unconverged], a non-finite value turned
   into an exception, anything else), is counted as failed instead of
   crashing the run. [failed / attempted] is the check failure rate. *)

open Mdsp_util
module E = Mdsp_md.Engine

type t = { mutable attempted : int; mutable failed : int }

let create () = { attempted = 0; failed = 0 }
let fail_rate t = float_of_int t.failed /. float_of_int (max 1 t.attempted)

let describe_exn = function
  | Mdsp_md.Constraints.Unconverged u -> Mdsp_md.Constraints.unconverged_message u
  | e -> Printexc.to_string e

(* Count an outcome that was decided outside [run] (a window that died). *)
let record t name ~ok detail =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1;
  Printf.printf "check %-22s %-4s %s\n%!" name (if ok then "ok" else "FAIL") detail

(* [run t name f]: [f] returns (passed, detail). *)
let run t name f =
  let ok, detail = try f () with e -> (false, describe_exn e) in
  record t name ~ok detail

(* --- the frame the force checks compare on --- *)

type frame = {
  box : Pbc.t;
  positions : Vec3.t array;
  forces : Vec3.t array;  (** the engine's forces at [positions] *)
  pair_energy : float;
}

let capture eng =
  let s = E.snapshot eng in
  {
    box = s.snap_state.Mdsp_md.State.box;
    positions = s.snap_state.Mdsp_md.State.positions;
    forces = s.snap_forces;
    pair_energy = s.snap_energies.Mdsp_md.Force_calc.pair;
  }

let finite_vec (v : Vec3.t) =
  Float.is_finite v.x && Float.is_finite v.y && Float.is_finite v.z

(* Relative rms difference |a - b| / |b| over all atoms. *)
let rel_rms_diff a b =
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun i bi ->
      num := !num +. Vec3.norm2 (Vec3.sub a.(i) bi);
      den := !den +. Vec3.norm2 bi)
    b;
  sqrt (!num /. !den)

(* --- all workloads --- *)

(* A run that is still physical stays far below this; the lattice water
   start peaks near 1000 K. *)
let temperature_guard_k = 3000.

let finite t eng ~after =
  run t ("finite." ^ after) (fun () ->
      let st = E.state eng in
      let pe = E.potential_energy eng and ke = E.kinetic_energy eng in
      let temp = E.temperature eng in
      let ok =
        Float.is_finite pe && Float.is_finite ke
        && Array.for_all finite_vec st.Mdsp_md.State.positions
        && Float.is_finite temp && temp < temperature_guard_k
      in
      (ok, Printf.sprintf "T = %.1f K (guard %.0f K), PE = %.6g kcal/mol" temp
             temperature_guard_k pe))

(* --- lj4k: brute-force O(N^2) shifted Lennard-Jones --- *)

let lj_reference (topo : Mdsp_ff.Topology.t) ~cutoff box positions =
  let n = Array.length positions in
  let forces = Array.make n Vec3.zero in
  let rc2 = cutoff *. cutoff in
  let energy = ref 0. in
  let lj eps sig2 r2 =
    let sr6 = (sig2 /. r2) ** 3. in
    (4. *. eps *. ((sr6 *. sr6) -. sr6), 24. *. eps *. ((2. *. sr6 *. sr6) -. sr6) /. r2)
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Pbc.min_image box positions.(i) positions.(j) in
      let r2 = Vec3.norm2 d in
      if r2 < rc2 then begin
        let ai = topo.atoms.(i) and aj = topo.atoms.(j) in
        let ei, si = topo.lj_types.(ai.type_id)
        and ej, sj = topo.lj_types.(aj.type_id) in
        let eps = sqrt (ei *. ej) and sg = 0.5 *. (si +. sj) in
        let e, f_over_r = lj eps (sg *. sg) r2 in
        let e_cut, _ = lj eps (sg *. sg) rc2 in
        energy := !energy +. e -. e_cut;
        let f = Vec3.scale f_over_r d in
        forces.(i) <- Vec3.add forces.(i) f;
        forces.(j) <- Vec3.sub forces.(j) f
      end
    done
  done;
  (forces, !energy)

let lj_bruteforce t (sys : Mdsp_workload.Workloads.system) ~cutoff fr =
  run t "lj.bruteforce" (fun () ->
      let f_ref, e_ref = lj_reference sys.topo ~cutoff fr.box fr.positions in
      let ferr = rel_rms_diff fr.forces f_ref in
      let eerr = Float.abs ((fr.pair_energy -. e_ref) /. e_ref) in
      ( ferr < 1e-9 && eerr < 1e-9,
        Printf.sprintf "force rel rms err %.2e, energy rel err %.2e (tol 1e-9)"
          ferr eerr ))

(* --- water6k_gse --- *)

let max_violation_tol = 1e-6

let constraints t eng =
  run t "constraints.violation" (fun () ->
      let st = E.state eng in
      let v =
        Mdsp_md.Constraints.max_violation (E.constraints eng)
          st.Mdsp_md.State.box st.Mdsp_md.State.positions
      in
      (v < max_violation_tol, Printf.sprintf "max |r2-d2|/d2 = %.2e (tol %.0e)" v max_violation_tol))

(* Ewald k-space cut at |n| <= kmax: each dropped term carries at most
   exp(-(pi n / (beta L))^2) <= exp(-2.8^2) ~ 4e-4 of the kernel weight,
   far below the GSE error the check bounds. *)
let ewald_kmax ~beta box =
  int_of_float (Float.ceil (2.8 *. beta *. Pbc.min_edge box /. Float.pi))

let gse_force_tol = 2e-2

(* Relative rms error of the GSE reciprocal forces against direct Ewald on
   the frame; the solver is a fresh one, so the engine's is untouched. *)
let gse_force_rel_err ~exec ~beta ~grid (topo : Mdsp_ff.Topology.t) fr =
  let charges = Mdsp_ff.Topology.charges topo in
  let n = Array.length fr.positions in
  let gse = Mdsp_longrange.Gse.create ~beta ~grid fr.box in
  let acc_g = Mdsp_ff.Bonded.make_accum n in
  ignore (Mdsp_longrange.Gse.reciprocal ~exec gse charges fr.positions acc_g);
  let ew =
    Mdsp_longrange.Ewald.create ~beta ~kmax:(ewald_kmax ~beta fr.box) fr.box
  in
  let acc_e = Mdsp_ff.Bonded.make_accum n in
  ignore (Mdsp_longrange.Ewald.reciprocal ew charges fr.positions acc_e);
  rel_rms_diff acc_g.forces acc_e.forces

let gse_vs_ewald t ~exec ~beta ~grid topo fr =
  let err = ref nan in
  run t "gse.vs_ewald" (fun () ->
      err := gse_force_rel_err ~exec ~beta ~grid topo fr;
      let gx, _, _ = grid in
      ( !err < gse_force_tol,
        Printf.sprintf "%d^3 reciprocal force rel rms err %.2e (tol %.0e)" gx
          !err gse_force_tol ));
  !err

(* --- chain10k_tables --- *)

(* The table compiler's accuracy class (Table_check's default bound on a
   fitted pair force's relative error). Summed over an atom's pairs it
   bounds the atom's force error by this share of the sum of the pair force
   magnitudes, which cancellation cannot shrink. *)
let table_force_tol = 5e-3

let tables_vs_analytic t ~analytic ~evaluator fr =
  run t "tables.vs_analytic" (fun () ->
      let fa = (E.snapshot analytic).E.snap_forces in
      let n = Array.length fa in
      let mag = Array.make n 0. in
      let nl = Mdsp_md.Force_calc.nlist (E.force_calc analytic) in
      Mdsp_space.Neighbor_list.iter nl (fun i j ->
          let r2 = Pbc.dist2 fr.box fr.positions.(i) fr.positions.(j) in
          if r2 < evaluator.Mdsp_ff.Pair_interactions.cutoff ** 2. then begin
            let _, f_over_r = evaluator.eval i j r2 in
            let f = Float.abs f_over_r *. sqrt r2 in
            mag.(i) <- mag.(i) +. f;
            mag.(j) <- mag.(j) +. f
          end);
      let worst = ref 0. in
      Array.iteri
        (fun i fi ->
          let e = Vec3.norm (Vec3.sub fr.forces.(i) fi) /. (mag.(i) +. 1e-12) in
          if not (e <= !worst) then worst := e)
        fa;
      ( !worst <= table_force_tol,
        Printf.sprintf
          "max |dF_i| / sum_j |f_ij| = %.2e (tol %.0e), force rel rms err %.2e"
          !worst table_force_tol (rel_rms_diff fr.forces fa) ))

let htis_saturations t ~ts ~types ~charges ~cutoff ~nlist fr =
  run t "htis.saturations" (fun () ->
      let r =
        Mdsp_machine.Htis.compute_forces ts ~types ~charges ~cutoff fr.box
          nlist fr.positions
      in
      (r.saturations = 0, Printf.sprintf "%d fixed-point saturations" r.saturations))
