(* Tests for Mdsp_longrange: FFT, classic Ewald (Madelung constants), and
   the Gaussian-split-Ewald grid solver. *)

open Mdsp_util
open Mdsp_longrange
open Testsupport

(* --- FFT --- *)

let test_fft_pow2_helpers () =
  check_true "8 is pow2" (Fft.is_pow2 8);
  check_true "12 is not" (not (Fft.is_pow2 12));
  Alcotest.(check int) "next pow2" 16 (Fft.next_pow2 9);
  Alcotest.(check int) "next pow2 exact" 8 (Fft.next_pow2 8)

let test_fft_delta_function () =
  (* FFT of a delta at 0 is all ones. *)
  let n = 16 in
  let re = Array.make n 0. and im = Array.make n 0. in
  re.(0) <- 1.;
  Fft.fft_1d ~sign:(-1) re im;
  Array.iter (fun x -> check_float ~eps:1e-12 "re = 1" 1. x) re;
  Array.iter (fun x -> check_float ~eps:1e-12 "im = 0" 0. x) im

let test_fft_roundtrip () =
  let n = 64 in
  let rng = Rng.create 61 in
  let re0 = Array.init n (fun _ -> Rng.gaussian rng) in
  let im0 = Array.init n (fun _ -> Rng.gaussian rng) in
  let re = Array.copy re0 and im = Array.copy im0 in
  Fft.fft_1d ~sign:(-1) re im;
  Fft.fft_1d ~sign:1 re im;
  for i = 0 to n - 1 do
    check_float ~eps:1e-9 "re roundtrip" re0.(i) (re.(i) /. float_of_int n);
    check_float ~eps:1e-9 "im roundtrip" im0.(i) (im.(i) /. float_of_int n)
  done

let test_fft_parseval () =
  let n = 128 in
  let rng = Rng.create 62 in
  let re = Array.init n (fun _ -> Rng.gaussian rng) in
  let im = Array.make n 0. in
  let time_energy =
    Array.fold_left (fun a x -> a +. (x *. x)) 0. re
  in
  Fft.fft_1d ~sign:(-1) re im;
  let freq_energy = ref 0. in
  for i = 0 to n - 1 do
    freq_energy := !freq_energy +. (re.(i) *. re.(i)) +. (im.(i) *. im.(i))
  done;
  check_close ~rel:1e-9 "Parseval" time_energy (!freq_energy /. float_of_int n)

let test_fft_single_mode () =
  (* cos(2 pi k0 x / n) has peaks at +-k0 only. *)
  let n = 32 and k0 = 5 in
  let re =
    Array.init n (fun i ->
        cos (2. *. Float.pi *. float_of_int (k0 * i) /. float_of_int n))
  in
  let im = Array.make n 0. in
  Fft.fft_1d ~sign:(-1) re im;
  for k = 0 to n - 1 do
    let expected = if k = k0 || k = n - k0 then float_of_int n /. 2. else 0. in
    check_float ~eps:1e-9 (Printf.sprintf "mode %d" k) expected re.(k)
  done

let test_fft_3d_roundtrip () =
  let nx, ny, nz = (8, 4, 16) in
  let total = nx * ny * nz in
  let rng = Rng.create 63 in
  let re0 = Array.init total (fun _ -> Rng.gaussian rng) in
  let re = Array.copy re0 and im = Array.make total 0. in
  Fft.fft_3d ~sign:(-1) ~nx ~ny ~nz re im;
  Fft.fft_3d ~sign:1 ~nx ~ny ~nz re im;
  let scale = 1. /. float_of_int total in
  for i = 0 to total - 1 do
    check_float ~eps:1e-9 "3d roundtrip" re0.(i) (re.(i) *. scale)
  done

let test_fft_rejects_non_pow2 () =
  Alcotest.check_raises "length 12"
    (Invalid_argument "Fft.fft_1d: length must be a power of 2") (fun () ->
      Fft.fft_1d ~sign:(-1) (Array.make 12 0.) (Array.make 12 0.))

(* --- Ewald --- *)

(* Rock-salt (NaCl) structure: Madelung constant 1.747565. *)
let nacl_system () =
  let a = 2.0 in
  let box = Pbc.cubic a in
  let positions = ref [] and charges = ref [] in
  for x = 0 to 1 do
    for y = 0 to 1 do
      for z = 0 to 1 do
        positions :=
          Vec3.make (float_of_int x) (float_of_int y) (float_of_int z)
          :: !positions;
        charges := (if (x + y + z) mod 2 = 0 then 1.0 else -1.0) :: !charges
      done
    done
  done;
  (box, Array.of_list !positions, Array.of_list !charges)

let test_ewald_madelung_nacl () =
  let box, pos, q = nacl_system () in
  let ew = Ewald.create ~beta:2.5 ~kmax:12 box in
  let e = Ewald.total_reference ew box q pos in
  (* E_total = -N_pairs * M * C / r0 with 4 formula units and r0 = 1. *)
  let madelung = -.e /. (Units.coulomb *. 4.0) in
  check_close ~rel:2e-3 "NaCl Madelung constant" 1.747565 madelung

let test_ewald_beta_independence () =
  (* The total must not depend on the splitting parameter. *)
  let box, pos, q = nacl_system () in
  let e1 = Ewald.total_reference (Ewald.create ~beta:2.0 ~kmax:14 box) box q pos in
  let e2 = Ewald.total_reference (Ewald.create ~beta:3.0 ~kmax:18 box) box q pos in
  check_close ~rel:2e-3 "beta independence" e1 e2

let test_ewald_cscl_madelung () =
  (* CsCl structure: body-centered, Madelung constant 1.762675 (in units of
     the nearest-neighbor distance sqrt(3)/2 a). *)
  let box = Pbc.cubic 2.0 in
  (* Two interpenetrating cubic lattices: + at corners, - at centers, for a
     2x2x2 supercell of unit cells of edge 1. *)
  let positions = ref [] and charges = ref [] in
  for x = 0 to 1 do
    for y = 0 to 1 do
      for z = 0 to 1 do
        positions :=
          Vec3.make (float_of_int x) (float_of_int y) (float_of_int z)
          :: !positions;
        charges := 1.0 :: !charges;
        positions :=
          Vec3.make
            (float_of_int x +. 0.5)
            (float_of_int y +. 0.5)
            (float_of_int z +. 0.5)
          :: !positions;
        charges := (-1.0) :: !charges
      done
    done
  done;
  let pos = Array.of_list !positions and q = Array.of_list !charges in
  let ew = Ewald.create ~beta:2.5 ~kmax:12 box in
  let e = Ewald.total_reference ew box q pos in
  let r_nn = sqrt 3. /. 2. in
  (* 8 formula units. *)
  let madelung = -.e *. r_nn /. (Units.coulomb *. 8.0) in
  check_close ~rel:2e-3 "CsCl Madelung constant" 1.762675 madelung

let test_ewald_reciprocal_forces_numeric () =
  let box = Pbc.cubic 10. in
  let rng = Rng.create 64 in
  let n = 8 in
  let pos =
    Array.init n (fun _ ->
        Vec3.make
          (Rng.uniform_in rng 0. 10.)
          (Rng.uniform_in rng 0. 10.)
          (Rng.uniform_in rng 0. 10.))
  in
  let q = Array.init n (fun i -> if i mod 2 = 0 then 1. else -1.) in
  let ew = Ewald.create ~beta:0.4 ~kmax:8 box in
  let acc = Mdsp_ff.Bonded.make_accum n in
  ignore (Ewald.reciprocal ew q pos acc);
  let numeric =
    numeric_forces ~h:1e-5
      (fun p ->
        let a = Mdsp_ff.Bonded.make_accum n in
        Ewald.reciprocal ew q p a)
      pos
  in
  check_true "reciprocal forces match numeric"
    (max_vec_diff acc.Mdsp_ff.Bonded.forces numeric < 1e-4)

let test_ewald_self_energy () =
  let box = Pbc.cubic 10. in
  let ew = Ewald.create ~beta:0.5 ~kmax:4 box in
  let q = [| 1.; -1.; 2. |] in
  check_close ~rel:1e-9 "self energy"
    (-0.5 /. sqrt Float.pi *. 6. *. Units.coulomb)
    (Ewald.self_energy ew q)

let test_ewald_excluded_correction_forces () =
  let box = Pbc.cubic 12. in
  let pos = [| Vec3.make 5. 5. 5.; Vec3.make 6.1 5. 5.; Vec3.make 5. 7. 5. |] in
  let q = [| 0.4; -0.4; 0.2 |] in
  let ex = Mdsp_space.Exclusions.of_pairs ~n:3 [ (0, 1) ] in
  let ew = Ewald.create ~beta:0.4 ~kmax:4 box in
  let acc = Mdsp_ff.Bonded.make_accum 3 in
  ignore (Ewald.excluded_correction ew box q pos ex acc);
  let numeric =
    numeric_forces ~h:1e-6
      (fun p ->
        let a = Mdsp_ff.Bonded.make_accum 3 in
        Ewald.excluded_correction ew box q p ex a)
      pos
  in
  check_true "excluded-correction forces match numeric"
    (max_vec_diff acc.Mdsp_ff.Bonded.forces numeric < 1e-5);
  (* Atom 2 is not in any excluded pair: zero force. *)
  check_true "uninvolved atom untouched"
    (Vec3.norm acc.Mdsp_ff.Bonded.forces.(2) < 1e-12)

(* --- GSE --- *)

let random_neutral_system seed n box_l =
  let rng = Rng.create seed in
  let box = Pbc.cubic box_l in
  let pos =
    Array.init n (fun _ ->
        Vec3.make
          (Rng.uniform_in rng 0. box_l)
          (Rng.uniform_in rng 0. box_l)
          (Rng.uniform_in rng 0. box_l))
  in
  let q = Array.init n (fun i -> if i mod 2 = 0 then 1. else -1.) in
  (box, pos, q)

let test_gse_matches_ewald_energy () =
  let box, pos, q = random_neutral_system 65 20 10. in
  let beta = 0.35 in
  let ew = Ewald.create ~beta ~kmax:14 box in
  let acc1 = Mdsp_ff.Bonded.make_accum 20 in
  let e_ref = Ewald.reciprocal ew q pos acc1 in
  let gse = Gse.create ~beta ~grid:(32, 32, 32) box in
  let acc2 = Mdsp_ff.Bonded.make_accum 20 in
  let e_gse = Gse.reciprocal gse q pos acc2 in
  check_close ~rel:2e-3 "reciprocal energy" e_ref e_gse

let test_gse_matches_ewald_forces () =
  let box, pos, q = random_neutral_system 66 20 10. in
  let beta = 0.35 in
  let ew = Ewald.create ~beta ~kmax:14 box in
  let acc1 = Mdsp_ff.Bonded.make_accum 20 in
  ignore (Ewald.reciprocal ew q pos acc1);
  let gse = Gse.create ~beta ~grid:(32, 32, 32) box in
  let acc2 = Mdsp_ff.Bonded.make_accum 20 in
  ignore (Gse.reciprocal gse q pos acc2);
  (* Typical force magnitude sets the error scale. *)
  let rms = ref 0. in
  Array.iter (fun f -> rms := !rms +. Vec3.norm2 f) acc1.Mdsp_ff.Bonded.forces;
  let rms = sqrt (!rms /. 20.) in
  let err =
    max_vec_diff acc1.Mdsp_ff.Bonded.forces acc2.Mdsp_ff.Bonded.forces /. rms
  in
  check_true (Printf.sprintf "relative force error %.2e < 2%%" err) (err < 0.02)

let test_gse_grid_refinement_improves () =
  let box, pos, q = random_neutral_system 67 16 10. in
  let beta = 0.35 in
  let ew = Ewald.create ~beta ~kmax:14 box in
  let acc = Mdsp_ff.Bonded.make_accum 16 in
  let e_ref = Ewald.reciprocal ew q pos acc in
  let err grid =
    let gse = Gse.create ~beta ~grid box in
    let a = Mdsp_ff.Bonded.make_accum 16 in
    abs_float (Gse.reciprocal gse q pos a -. e_ref)
  in
  let e16 = err (16, 16, 16) and e32 = err (32, 32, 32) in
  check_true
    (Printf.sprintf "finer grid better: %.2e -> %.2e" e16 e32)
    (e32 < e16)

let test_gse_virial_matches_ewald () =
  let box, pos, q = random_neutral_system 68 20 10. in
  let beta = 0.35 in
  let ew = Ewald.create ~beta ~kmax:14 box in
  let acc1 = Mdsp_ff.Bonded.make_accum 20 in
  ignore (Ewald.reciprocal ew q pos acc1);
  let gse = Gse.create ~beta ~grid:(32, 32, 32) box in
  let acc2 = Mdsp_ff.Bonded.make_accum 20 in
  ignore (Gse.reciprocal gse q pos acc2);
  check_close ~rel:5e-3 "reciprocal virial" acc1.Mdsp_ff.Bonded.virial
    acc2.Mdsp_ff.Bonded.virial

let test_gse_rejects_bad_config () =
  let box = Pbc.cubic 10. in
  Alcotest.check_raises "non-pow2 grid"
    (Invalid_argument "Gse.create: grid dims must be powers of two") (fun () ->
      ignore (Gse.create ~beta:0.3 ~grid:(12, 16, 16) box));
  Alcotest.check_raises "sigma too large"
    (Invalid_argument "Gse.create: sigma_s must be <= 1/(2 beta)") (fun () ->
      ignore (Gse.create ~beta:0.3 ~grid:(16, 16, 16) ~sigma_s:2.0 box))

let test_gse_chargeless_is_zero () =
  let box = Pbc.cubic 10. in
  let gse = Gse.create ~beta:0.35 ~grid:(16, 16, 16) box in
  let pos = [| Vec3.make 1. 1. 1.; Vec3.make 5. 5. 5. |] in
  let acc = Mdsp_ff.Bonded.make_accum 2 in
  let e = Gse.reciprocal gse [| 0.; 0. |] pos acc in
  check_float ~eps:0. "zero energy" 0. e;
  Array.iter
    (fun f -> check_true "zero forces" (Vec3.norm f = 0.))
    acc.Mdsp_ff.Bonded.forces

(* Serial [Gse.reciprocal] on [water_box ~n_side:3] at 16^3, beta 0.4, as
   computed by the per-grid-point stencil (one [exp] per point) that the
   separable stencil replaced, printed at 17 significant digits. The
   separable factorisation changes rounding only. *)
let golden_energy = 46.946219031024597
let golden_virial = -102.2724925759389

let golden_forces =
  [|
    (3.1319688854356094, -11.027873519957492, -3.7243599925407276);
    (-2.2329042709132634, 6.4444650697525905, 1.6676898651145597);
    (-1.0193620908486196, 3.7503026133013084, 2.6627121169165338);
    (12.995992541736731, -5.1695512289289427, -1.7867862002857613);
    (-3.813583664401313, 2.6176522618881113, 0.52380576218950881);
    (-5.695807511688777, 2.9063953059125316, 0.87888785609654052);
    (4.6235038948690734, -11.116126919422546, 5.5353220575887718);
    (-0.063503607778974597, 5.6568401209877308, -1.8165442468540951);
    (-2.0828930547816977, 3.0769594714371693, -2.4803103130193507);
    (7.5755836376381938, 3.4631085768846299, -1.2074825191043013);
    (-4.8213073936034858, -0.79181340173878845, 1.8709616050902758);
    (-1.7513567169867974, -2.4611849335295188, 0.10445961806101482);
    (9.1988540816956377, -2.7849364410553132, -3.997416609732459);
    (-3.2011493329368457, 2.3090526038926535, 1.8734650576111145);
    (-5.7082533610132211, 1.4744839324416277, 1.6010047569822758);
    (4.520208722014039, 2.2372576474124095, 5.2572871218500676);
    (-1.8776107465185998, -3.2200609295905736, -3.2358646009188354);
    (-1.6076049901582385, -1.8475739326240996, -2.6215286682421044);
    (0.47045582362937033, 7.6180818668522141, -4.9038029877465856);
    (-3.0276258097578799, -3.7392056457554395, 5.2395236776440486);
    (1.0158468135435543, -2.8416008439855851, 0.13726061783930366);
    (10.528096603785047, 7.968624593817994, -4.3178709757109788);
    (-4.9712678358366675, -3.5213492862654809, 0.78669907382242288);
    (-5.2256330413601288, -2.9610465716043723, 4.4958324621948256);
    (1.4581194817511243, 9.0136861644281279, 9.1933268410994575);
    (0.11926645836877668, -3.0231582658789886, -4.2754822538938173);
    (-2.7122553158185485, -3.5873646221801629, -4.8731994283340541);
    (-11.737094514169184, -5.5619926749538466, 0.68437945843008807);
    (6.0262903572068263, 3.1740234255493425, -1.1393999072002869);
    (5.2731781865304415, 2.4570806264609, -0.36021369618045068);
    (-11.835433501216613, -9.1417961206996932, 1.7140233293471558);
    (5.6824410056002153, 3.3173139840456303, -1.3820749310073324);
    (4.7862913884813683, 4.2289110041814935, 0.030668287992037593);
    (-7.803356630858052, -8.6160157055489428, -2.3833878985390053);
    (4.192637365069948, 4.6011169656672175, 1.1779106992658095);
    (3.952355947062681, 2.5865633397725105, 1.5339865458627326);
    (-12.359299527445209, 3.5134040611136728, -1.1152285068703249);
    (4.3126684492437093, -0.98727178675886706, 0.080298580629113173);
    (4.9266735624593831, -1.7828764736998237, -0.32533114193518126);
    (-9.0529879370193562, 2.0140025542593558, -1.6671093587246077);
    (2.6645311291241502, 0.78496480825698967, 1.6702897020089917);
    (5.6283444427911853, -1.4369941902467469, 1.0964836405016385);
    (-5.2939758084319459, 3.3307779350288289, 2.7799045724952705);
    (1.9517549089819095, -2.3920472536605435, -1.5972028956527617);
    (3.6018140293746148, -1.4211388658404138, -1.2628939585225003);
    (-9.648012344046796, 2.0525232462295322, 2.2578163351128127);
    (5.0000805975180613, -0.96317868010123253, -1.2552115442703151);
    (5.0700469299138335, -1.8878659781786726, -0.65644267368587006);
    (-6.2474286688464371, 7.0642979756013178, -0.39666796237328789);
    (4.9903402081349357, -2.2883029787285056, -0.79065366064902476);
    (1.7178114441878767, -3.8628761616183702, 1.1197050539459914);
    (-3.955252708173211, 5.3154328930660801, -1.9255178173922944);
    (1.3151851231532441, -3.8372823055310072, 0.47227261228563305);
    (1.4937397885284787, -1.8153805403866823, 0.92336173274544808);
    (8.5236492058352624, -11.145494722180393, -8.4979659650879533);
    (-5.0644758872127289, 6.4156747152216882, 3.8800399502578142);
    (-4.2451768236691443, 4.4304436311477797, 3.4039391044218372);
    (-1.2078659150656288, -5.7649769041744996, 1.4529671669459636);
    (-0.20193785231984124, 2.6139892955687736, 0.088751555888565523);
    (2.739844832827774, 3.1646447081566045, -2.1018008767464371);
    (3.1718301148595072, -9.6995876823064311, 7.0060132940762383);
    (-2.4748339838502789, 5.0333520091024866, -3.9704466203794526);
    (-2.1163090057863934, 5.0220087437400664, -1.2281959163074774);
    (4.7538743257937233, 4.7161766642754257, -6.5396133198267936);
    (-3.2015244671326495, -4.4728848543146311, 2.7858728201146246);
    (-3.1127629798917882, 0.68283917376073022, 2.9074229283117798);
    (-0.22942008856137189, 2.7049736048512609, 3.5260404770085652);
    (2.1379624367392469, -1.9770674422043812, -2.1497200251308919);
    (-0.31729292786228797, -1.297054045996892, -2.0301249843170086);
    (0.75198250349840068, 4.7797053613946252, 3.00302840677965);
    (0.66462311091092463, -2.527747344442171, -1.5748086595757049);
    (-0.72466382061674117, -3.9918868567421906, -2.1597228859139515);
    (9.1156251452209531, 6.4617224662342805, -8.1473085931997602);
    (-5.660492873835608, -1.5337619080663683, 3.5750813646192534);
    (-4.4580977006965794, -5.3395182973058626, 4.3869981132475555);
    (-4.3606405865461602, 3.1483201448672973, 0.75455856071308458);
    (3.6997466675516644, -1.9914436452636575, -2.1126765099085971);
    (2.8091402151132749, -1.0248437524952241, 0.7422234405397522);
    (2.4554082626073228, 5.0853725812954895, 7.3422422522907427);
    (-3.3440205253549777, -2.2759945063625731, -1.4731901008306736);
    (-0.58240683620665656, -0.10495145222179349, -4.7424645693690168);
  |]

(* The charged water box of the golden reference and its serial solver. *)
let golden_setup () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  let open Mdsp_workload.Workloads in
  let gse = Gse.create ~beta:0.4 ~grid:(16, 16, 16) sys.box in
  (gse, Mdsp_ff.Topology.charges sys.topo, sys.positions)

let test_gse_golden_serial () =
  let gse, q, pos = golden_setup () in
  let n = Array.length pos in
  Alcotest.(check int) "atom count" (Array.length golden_forces) n;
  let acc = Mdsp_ff.Bonded.make_accum n in
  let e = Gse.reciprocal gse q pos acc in
  check_close ~rel:1e-12 "golden energy" golden_energy e;
  check_close ~rel:1e-12 "golden virial" golden_virial
    acc.Mdsp_ff.Bonded.virial;
  let golden = Array.map (fun (x, y, z) -> Vec3.make x y z) golden_forces in
  let rms =
    sqrt
      (Array.fold_left (fun a f -> a +. Vec3.norm2 f) 0. golden
      /. float_of_int n)
  in
  let err = max_vec_diff golden acc.Mdsp_ff.Bonded.forces /. rms in
  check_true
    (Printf.sprintf "golden forces (max diff %.2e rms <= 1e-12)" err)
    (err <= 1e-12)

(* A serial call spreads and gathers without per-stencil-point allocation:
   after a warm-up call has sized the cached scratch, the whole reciprocal
   call stays under 128 minor words per charged atom. *)
let test_gse_allocation_per_atom () =
  let gse, q, pos = golden_setup () in
  let acc = Mdsp_ff.Bonded.make_accum (Array.length pos) in
  ignore (Gse.reciprocal gse q pos acc);
  let charged = Array.fold_left (fun k x -> if x <> 0. then k + 1 else k) 0 q in
  let w0 = Gc.minor_words () in
  ignore (Gse.reciprocal gse q pos acc);
  let words = (Gc.minor_words () -. w0) /. float_of_int charged in
  check_true
    (Printf.sprintf "%.1f minor words per charged atom < 128" words)
    (words < 128.)

let () =
  Alcotest.run "mdsp_longrange"
    [
      ( "fft",
        [
          Alcotest.test_case "pow2 helpers" `Quick test_fft_pow2_helpers;
          Alcotest.test_case "delta function" `Quick test_fft_delta_function;
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "Parseval" `Quick test_fft_parseval;
          Alcotest.test_case "single mode" `Quick test_fft_single_mode;
          Alcotest.test_case "3d roundtrip" `Quick test_fft_3d_roundtrip;
          Alcotest.test_case "rejects non-pow2" `Quick
            test_fft_rejects_non_pow2;
        ] );
      ( "ewald",
        [
          Alcotest.test_case "NaCl Madelung" `Quick test_ewald_madelung_nacl;
          Alcotest.test_case "beta independence" `Quick
            test_ewald_beta_independence;
          Alcotest.test_case "CsCl Madelung" `Quick test_ewald_cscl_madelung;
          Alcotest.test_case "reciprocal forces numeric" `Quick
            test_ewald_reciprocal_forces_numeric;
          Alcotest.test_case "self energy" `Quick test_ewald_self_energy;
          Alcotest.test_case "excluded correction forces" `Quick
            test_ewald_excluded_correction_forces;
        ] );
      ( "gse",
        [
          Alcotest.test_case "matches Ewald energy" `Quick
            test_gse_matches_ewald_energy;
          Alcotest.test_case "matches Ewald forces" `Quick
            test_gse_matches_ewald_forces;
          Alcotest.test_case "grid refinement improves" `Quick
            test_gse_grid_refinement_improves;
          Alcotest.test_case "virial matches Ewald" `Quick
            test_gse_virial_matches_ewald;
          Alcotest.test_case "rejects bad config" `Quick
            test_gse_rejects_bad_config;
          Alcotest.test_case "chargeless zero" `Quick
            test_gse_chargeless_is_zero;
          Alcotest.test_case "golden serial reference" `Quick
            test_gse_golden_serial;
          Alcotest.test_case "allocation per charged atom" `Quick
            test_gse_allocation_per_atom;
        ] );
    ]
