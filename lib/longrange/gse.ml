open Mdsp_util

(* One particle's spreading stencil, factorised by axis. Entry [k] of an
   axis covers the neighbor cell at offset [k - s] from the home cell:
   [d*] is the displacement of the particle from that grid coordinate,
   [e*] the 1-D Gaussian factor exp(-d^2 / 2 sigma^2), and [i*] the
   periodic grid index already scaled by the axis stride (1, nx, nx ny),
   so a stencil point's flat index is [ix.(a) + iy.(b) + iz.(c)]. *)
type stencil = {
  dx : float array;
  dy : float array;
  dz : float array;
  ex : float array;
  ey : float array;
  ez : float array;
  ix : int array;
  iy : int array;
  iz : int array;
}

type t = {
  beta_ : float;
  sigma : float;
  nx : int;
  ny : int;
  nz : int;
  box : Pbc.t;
  ghat : float array;  (** influence function, indexed like the grid *)
  k2s : float array;  (** squared wavevector per grid point *)
  (* Stencil half-widths in cells per axis: the support radius
     [support * sigma] rounded up to whole grid spacings. *)
  sx : int;
  sy : int;
  sz : int;
  norm : float;  (** Gaussian normalisation (2 pi sigma^2)^(-3/2) *)
  inv_2s2 : float;
  r_max2 : float;  (** squared truncation radius *)
  (* The charge/potential grid pair, cleared on entry to each call. *)
  re : float array;
  im : float array;
  (* Per-slot scratch, sized lazily to the executor actually used and
     reused across steps: one stencil per slot, and one private spread grid
     per slot for domain-parallel charge spreading. *)
  mutable stencils : stencil array;
  mutable scratch : float array array;
}

type phases = {
  mutable spread_s : float;
  mutable fft_s : float;
  mutable convolve_s : float;
  mutable gather_s : float;
}

let zero_phases () =
  { spread_s = 0.; fft_s = 0.; convolve_s = 0.; gather_s = 0. }

let phases_total p = p.spread_s +. p.fft_s +. p.convolve_s +. p.gather_s

let create ~beta ~grid:(nx, ny, nz) ?sigma_s ?(support = 4.) box =
  if beta <= 0. then invalid_arg "Gse.create: beta must be positive";
  if not (Fft.is_pow2 nx && Fft.is_pow2 ny && Fft.is_pow2 nz) then
    invalid_arg "Gse.create: grid dims must be powers of two";
  let sigma =
    match sigma_s with
    | Some s -> s
    | None -> 1. /. (2. *. sqrt 2. *. beta)
  in
  if sigma > 1. /. (2. *. beta) +. 1e-12 then
    invalid_arg "Gse.create: sigma_s must be <= 1/(2 beta)";
  let open Pbc in
  let two_pi = 2. *. Float.pi in
  let freq n l m =
    let m' = if m <= n / 2 then m else m - n in
    two_pi *. float_of_int m' /. l
  in
  (* Remaining k-space Gaussian after two real-space spreads of width
     sigma: exp(-k^2 (1/(4 beta^2) - sigma^2)). The guard above keeps
     [rem >= -1e-12]: for the default sigma = 1/(2 sqrt 2 beta) it is
     exactly 1/(8 beta^2) > 0, and it reaches 0 only at the admissible
     extreme sigma = 1/(2 beta). Floating-point rounding near that extreme
     (the 1e-12 slack in the guard) can leave [rem] a hair negative, which
     merely makes exp(-k^2 rem) marginally exceed 1 for large k — a bounded,
     harmless perturbation of the influence function, not a blow-up, since
     |rem| k^2 stays tiny for every representable grid wavevector. *)
  let rem = (1. /. (4. *. beta *. beta)) -. (sigma *. sigma) in
  let total = nx * ny * nz in
  let ghat = Array.make total 0. in
  let k2s = Array.make total 0. in
  for mz = 0 to nz - 1 do
    for my = 0 to ny - 1 do
      for mx = 0 to nx - 1 do
        let kx = freq nx box.lx mx in
        let ky = freq ny box.ly my in
        let kz = freq nz box.lz mz in
        let k2 = (kx *. kx) +. (ky *. ky) +. (kz *. kz) in
        let idx = mx + (nx * (my + (ny * mz))) in
        k2s.(idx) <- k2;
        if k2 > 0. then
          ghat.(idx) <- 4. *. Float.pi *. exp (-.k2 *. rem) /. k2
      done
    done
  done;
  let r = support *. sigma in
  let cells l n = int_of_float (ceil (r /. (l /. float_of_int n))) in
  {
    beta_ = beta;
    sigma;
    nx;
    ny;
    nz;
    box;
    ghat;
    k2s;
    sx = cells box.lx nx;
    sy = cells box.ly ny;
    sz = cells box.lz nz;
    norm = (2. *. Float.pi *. sigma *. sigma) ** (-1.5);
    inv_2s2 = 1. /. (2. *. sigma *. sigma);
    r_max2 = r ** 2.;
    re = Array.make total 0.;
    im = Array.make total 0.;
    stencils = [||];
    scratch = [||];
  }

let beta t = t.beta_
let grid t = (t.nx, t.ny, t.nz)

(* One axis of the stencil around coordinate [x], wrapped into the primary
   box first. The home cell is [c = floor (x / h)]; the stencil walks the
   unwrapped neighbor coordinates g = c + k - s, whose *indices* are
   reduced mod n into the periodic grid while the *displacement* is taken
   against the unwrapped coordinate float_of_int g * h. As long as the
   support radius is below half the box (enforced in practice by any
   sensible grid), that unwrapped neighbor is the nearest periodic image of
   the grid point, so no additional minimum-image step is needed — and the
   same weights are produced for a particle and its wrapped copy, which is
   what makes spreading translation-consistent under PBC. *)
let[@inline] fill_axis ~inv_2s2 ~n ~l ~s ~stride x d e idx =
  (* [Pbc.wrap] of one coordinate, written out so no float is boxed for a
     cross-module call. *)
  let x = Float.rem x l in
  let x = if x < 0. then x +. l else x in
  let h = l /. float_of_int n in
  let c = int_of_float (x /. h) in
  for k = 0 to 2 * s do
    let g = c + k - s in
    let dk = x -. (float_of_int g *. h) in
    d.(k) <- dk;
    e.(k) <- exp (-.(dk *. dk) *. inv_2s2);
    idx.(k) <- stride * ((g mod n + n) mod n)
  done

let[@inline] fill_stencil t st (p : Vec3.t) =
  let open Pbc in
  let inv_2s2 = t.inv_2s2 in
  fill_axis ~inv_2s2 ~n:t.nx ~l:t.box.lx ~s:t.sx ~stride:1 p.Vec3.x st.dx
    st.ex st.ix;
  fill_axis ~inv_2s2 ~n:t.ny ~l:t.box.ly ~s:t.sy ~stride:t.nx p.Vec3.y st.dy
    st.ey st.iy;
  fill_axis ~inv_2s2 ~n:t.nz ~l:t.box.lz ~s:t.sz ~stride:(t.nx * t.ny)
    p.Vec3.z st.dz st.ez st.iz

(* The stencil covers the (2s+1)^3 cube around the home cell, truncated to
   the sphere (dx^2 + dy^2) + dz^2 <= r_max2. Rounded addition is
   monotone, so a row whose (dy^2 + dz^2) already exceeds the radius holds
   no point of the sphere and is skipped whole. *)

(* Add charge i into [grid]: each in-sphere point gets q norm ez ey ex,
   with the ez ey product hoisted per row. Particles are passed by index,
   so no float crosses a call boundary boxed. *)
let spread_charge t st grid charges positions i =
  fill_stencil t st positions.(i);
  let r_max2 = t.r_max2 in
  let qn = charges.(i) *. t.norm in
  for kz = 0 to 2 * t.sz do
    let dz = st.dz.(kz) in
    let dz2 = dz *. dz in
    let qz = qn *. st.ez.(kz) and oz = st.iz.(kz) in
    for ky = 0 to 2 * t.sy do
      let dy = st.dy.(ky) in
      let dy2 = dy *. dy in
      if dy2 +. dz2 <= r_max2 then begin
        let qyz = qz *. st.ey.(ky) and oyz = oz + st.iy.(ky) in
        for kx = 0 to 2 * t.sx do
          let dx = st.dx.(kx) in
          if (dx *. dx) +. dy2 +. dz2 <= r_max2 then begin
            let idx = st.ix.(kx) + oyz in
            grid.(idx) <- grid.(idx) +. (qyz *. st.ex.(kx))
          end
        done
      end
    done
  done

(* Add the force on charge i from the potential grid [phi] into [forces]:
   F = c q sum_g phi_g g (r - r_g), summed along x first per (z, y) row as
   sum phi ex and sum phi ex dx, then weighted by ez ey. [c] carries the
   Gaussian norm and unit scale. *)
let gather_force t st phi ~c charges positions forces i =
  fill_stencil t st positions.(i);
  let r_max2 = t.r_max2 in
  let fx = ref 0. and fy = ref 0. and fz = ref 0. in
  for kz = 0 to 2 * t.sz do
    let dz = st.dz.(kz) in
    let dz2 = dz *. dz in
    let ez = st.ez.(kz) and oz = st.iz.(kz) in
    for ky = 0 to 2 * t.sy do
      let dy = st.dy.(ky) in
      let dy2 = dy *. dy in
      if dy2 +. dz2 <= r_max2 then begin
        let oyz = oz + st.iy.(ky) in
        let s0 = ref 0. and s1 = ref 0. in
        for kx = 0 to 2 * t.sx do
          let dx = st.dx.(kx) in
          if (dx *. dx) +. dy2 +. dz2 <= r_max2 then begin
            let w = phi.(st.ix.(kx) + oyz) *. st.ex.(kx) in
            s0 := !s0 +. w;
            s1 := !s1 +. (w *. dx)
          end
        done;
        let eyz = ez *. st.ey.(ky) in
        fx := !fx +. (eyz *. !s1);
        fy := !fy +. (eyz *. dy *. !s0);
        fz := !fz +. (eyz *. dz *. !s0)
      end
    done
  done;
  let c = charges.(i) *. c and f = forces.(i) in
  forces.(i) <-
    {
      Vec3.x = f.Vec3.x +. (c *. !fx);
      y = f.Vec3.y +. (c *. !fy);
      z = f.Vec3.z +. (c *. !fz);
    }

(* Charge [sel]'s phase bucket with the wall time of [f ()]. *)
let timed phases sel f =
  match phases with
  | None -> f ()
  | Some ph ->
      let t0 = Timer.now () in
      let r = f () in
      sel ph (Timer.since t0);
      r

(* Fixed-shape pairwise tree over the per-slot spread grids at one grid
   point — same recursion shape as Bonded's per-atom force reduction, so
   the combined charge density is deterministic regardless of which domain
   produced which partial grid. *)
let rec tree_cell grids g lo hi =
  if hi - lo = 1 then grids.(lo).(g)
  else begin
    let mid = lo + ((hi - lo) / 2) in
    tree_cell grids g lo mid +. tree_cell grids g mid hi
  end

let slot_stencils t ns =
  if Array.length t.stencils <> ns then begin
    let axis s = Array.make ((2 * s) + 1) 0. in
    let index s = Array.make ((2 * s) + 1) 0 in
    t.stencils <-
      Array.init ns (fun _ ->
          {
            dx = axis t.sx;
            dy = axis t.sy;
            dz = axis t.sz;
            ex = axis t.sx;
            ey = axis t.sy;
            ez = axis t.sz;
            ix = index t.sx;
            iy = index t.sy;
            iz = index t.sz;
          })
  end;
  t.stencils

let scratch_grids t ns =
  let total = t.nx * t.ny * t.nz in
  if Array.length t.scratch <> ns then
    t.scratch <- Array.init ns (fun _ -> Array.make total 0.);
  t.scratch

(* 1. Spread charges. Serial: accumulate directly into [re] in particle
   order. Parallel: each slot spreads its contiguous particle tile into a
   private scratch grid, then the grids are combined point-wise with the
   fixed-shape tree, itself tiled over the pool. *)
let spread ~exec t charges positions re =
  let n = Array.length positions in
  let ns = Exec.n_slots exec in
  let sts = slot_stencils t ns in
  if ns = 1 && not (Exec.sanitizing exec) then
    for i = 0 to n - 1 do
      if charges.(i) <> 0. then spread_charge t sts.(0) re charges positions i
    done
  else begin
    let grids = scratch_grids t ns in
    let p_tiles = Exec.tile_bounds ~total:n ~ntiles:ns in
    Exec.parallel_run ~phase:"gse.spread" exec (fun s ->
        let grid = grids.(s) and st = sts.(s) in
        Array.fill grid 0 (Array.length grid) 0.;
        let lo, hi = p_tiles.(s) in
        (* Each slot spreads a particle tile into its private scratch grid;
           the racing surface is the particle partition. *)
        Exec.declare_write ~slot:s ~resource:"gse.spread" ~total:n ~lo ~hi
          exec;
        Exec.declare_read ~slot:s ~resource:"state.positions" ~lo ~hi exec;
        for i = lo to hi - 1 do
          if charges.(i) <> 0. then
            spread_charge t st grid charges positions i
        done);
    (* The tree combine reads every slot's partial grid, i.e. the whole
       particle footprint the spread phase declared. *)
    Exec.sweep ~phase:"gse.combine" ~writes:[ "gse.grid_combine" ]
      ~whole_reads:[ ("gse.spread", n) ] exec (t.nx * t.ny * t.nz)
      (fun _ lo hi ->
        for g = lo to hi - 1 do
          re.(g) <- tree_cell grids g 0 ns
        done)
  end

let reciprocal ?(exec = Exec.serial) ?phases t charges positions
    (acc : Mdsp_ff.Bonded.accum) =
  let n = Array.length positions in
  let ns = Exec.n_slots exec in
  let total = t.nx * t.ny * t.nz in
  let re = t.re and im = t.im in
  Array.fill re 0 total 0.;
  Array.fill im 0 total 0.;
  (* 1. Spread charges onto the grid. *)
  timed phases
    (fun p d -> p.spread_s <- p.spread_s +. d)
    (fun () -> spread ~exec t charges positions re);
  (* 2. Forward transform to k-space. *)
  timed phases
    (fun p d -> p.fft_s <- p.fft_s +. d)
    (fun () -> Fft.fft_3d ~exec ~sign:(-1) ~nx:t.nx ~ny:t.ny ~nz:t.nz re im);
  let vol = Pbc.volume t.box in
  let cell_vol = vol /. float_of_int total in
  (* Energy = 1/(2V) sum_k Ghat |rho_hat|^2 with rho_hat = cell_vol * DFT. *)
  let e_scale = cell_vol *. cell_vol /. (2. *. vol) *. Units.coulomb in
  let inv_2b2 = 1. /. (2. *. t.beta_ *. t.beta_) in
  (* 3. Convolve: scale each mode by Ghat and accumulate per-slot energy
     and virial partials over contiguous k tiles, combined with the
     fixed-shape tree so the parallel sum is deterministic. *)
  let energy, virial =
    timed phases
      (fun p d -> p.convolve_s <- p.convolve_s +. d)
      (fun () ->
        let e_slot = Array.make ns 0. and w_slot = Array.make ns 0. in
        Exec.sweep ~phase:"gse.convolve" ~reads:[ "gse.convolve" ]
          ~writes:[ "gse.convolve" ] exec total (fun s lo hi ->
            let energy = ref 0. and virial = ref 0. in
            for k = lo to hi - 1 do
              let s2 = (re.(k) *. re.(k)) +. (im.(k) *. im.(k)) in
              let e_k = t.ghat.(k) *. s2 in
              energy := !energy +. e_k;
              (* The total k-space kernel equals Ewald's, so the reciprocal
                 virial takes the same per-mode form:
                 W_k = E_k (1 - k^2 / (2 beta^2)). *)
              virial := !virial +. (e_k *. (1. -. (t.k2s.(k) *. inv_2b2)));
              re.(k) <- re.(k) *. t.ghat.(k);
              im.(k) <- im.(k) *. t.ghat.(k)
            done;
            e_slot.(s) <- !energy;
            w_slot.(s) <- !virial);
        (Exec.sum_tree e_slot, Exec.sum_tree w_slot))
  in
  acc.Mdsp_ff.Bonded.virial <-
    acc.Mdsp_ff.Bonded.virial +. (virial *. e_scale);
  let energy = energy *. e_scale in
  (* 4. Back-transform to the potential grid: phi = (1/N) * IDFT scaled. *)
  timed phases
    (fun p d -> p.fft_s <- p.fft_s +. d)
    (fun () -> Fft.fft_3d ~exec ~sign:1 ~nx:t.nx ~ny:t.ny ~nz:t.nz re im);
  let phi_scale = cell_vol /. vol in
  (* phi(r_g) = (cell_vol / V) * Finv[Ghat * F[rho]]_g  (= (1/N) * ... ). *)
  timed phases
    (fun p d -> p.convolve_s <- p.convolve_s +. d)
    (fun () ->
      Exec.sweep ~phase:"gse.phi_scale" ~reads:[ "gse.phi_scale" ]
        ~writes:[ "gse.phi_scale" ] exec total (fun _ lo hi ->
          for k = lo to hi - 1 do
            re.(k) <- re.(k) *. phi_scale
          done));
  (* 5. Gather forces: F_i = q_i cell_vol / sigma^2 *
        sum_g phi_g (r_i - r_g) gauss. Particles are tiled over the pool;
     each slot writes only its own particles' force entries, so no scratch
     accumulators or reduction are needed and the per-particle arithmetic
     is identical to serial. *)
  let c = t.norm *. cell_vol /. (t.sigma *. t.sigma) *. Units.coulomb in
  timed phases
    (fun p d -> p.gather_s <- p.gather_s +. d)
    (fun () ->
      let sts = slot_stencils t ns in
      (* Accumulates into the slot's own force entries (same-slot
         read-modify-write); the support stencil strides the whole
         potential grid and the slot reads its own particles' positions. *)
      Exec.sweep ~phase:"gse.gather" ~reads:[ "gse.gather"; "state.positions" ]
        ~writes:[ "gse.gather" ] ~whole_reads:[ ("gse.grid", total) ] exec n
        (fun s lo hi ->
          let st = sts.(s) in
          for i = lo to hi - 1 do
            if charges.(i) <> 0. then
              gather_force t st re ~c charges positions acc.forces i
          done));
  energy
