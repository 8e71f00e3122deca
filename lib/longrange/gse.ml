open Mdsp_util

type t = {
  beta_ : float;
  sigma : float;
  support : float;
  nx : int;
  ny : int;
  nz : int;
  box : Pbc.t;
  ghat : float array;  (** influence function, indexed like the grid *)
  k2s : float array;  (** squared wavevector per grid point *)
  (* Per-slot scratch grids for domain-parallel charge spreading, sized
     lazily to the executor actually used and reused across steps. *)
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
  let ghat = Array.make (nx * ny * nz) 0. in
  let k2s = Array.make (nx * ny * nz) 0. in
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
  { beta_ = beta; sigma; support; nx; ny; nz; box; ghat; k2s; scratch = [||] }

let beta t = t.beta_
let grid t = (t.nx, t.ny, t.nz)

let support_cells t =
  let open Pbc in
  let dx = t.box.lx /. float_of_int t.nx in
  let dy = t.box.ly /. float_of_int t.ny in
  let dz = t.box.lz /. float_of_int t.nz in
  let r = t.support *. t.sigma in
  ( int_of_float (ceil (r /. dx)),
    int_of_float (ceil (r /. dy)),
    int_of_float (ceil (r /. dz)) )

let support_points t =
  let sx, sy, sz = support_cells t in
  ((2 * sx) + 1) * ((2 * sy) + 1) * ((2 * sz) + 1)

(* Iterate over the grid points within the spreading support of position p,
   calling [f idx gauss dx dy dz]. The position is first wrapped into the
   primary box ([Pbc.wrap]) to find its home cell (cx, cy, cz); the stencil
   then walks unwrapped neighbor coordinates cx+ox, ... whose *indices* are
   reduced mod n into the periodic grid while the *displacement* is taken
   against the unwrapped coordinate float_of_int (cx+ox) * dx. As long as
   the support radius is below half the box (enforced in practice by any
   sensible grid), that unwrapped neighbor is the nearest periodic image of
   grid point (gx, gy, gz), so no additional minimum-image step is needed —
   and the same weight is produced for a particle and its wrapped copy,
   which is what makes spreading translation-consistent under PBC. *)
let iter_support t (p : Vec3.t) f =
  let open Pbc in
  let dx = t.box.lx /. float_of_int t.nx in
  let dy = t.box.ly /. float_of_int t.ny in
  let dz = t.box.lz /. float_of_int t.nz in
  let sx, sy, sz = support_cells t in
  let w = Pbc.wrap t.box p in
  let cx = int_of_float (w.Vec3.x /. dx) in
  let cy = int_of_float (w.Vec3.y /. dy) in
  let cz = int_of_float (w.Vec3.z /. dz) in
  let norm = (2. *. Float.pi *. t.sigma *. t.sigma) ** (-1.5) in
  let inv_2s2 = 1. /. (2. *. t.sigma *. t.sigma) in
  let r_max2 = (t.support *. t.sigma) ** 2. in
  for oz = -sz to sz do
    for oy = -sy to sy do
      for ox = -sx to sx do
        let gx = ((cx + ox) mod t.nx + t.nx) mod t.nx in
        let gy = ((cy + oy) mod t.ny + t.ny) mod t.ny in
        let gz = ((cz + oz) mod t.nz + t.nz) mod t.nz in
        let rx = float_of_int (cx + ox) *. dx in
        let ry = float_of_int (cy + oy) *. dy in
        let rz = float_of_int (cz + oz) *. dz in
        let ddx = w.Vec3.x -. rx in
        let ddy = w.Vec3.y -. ry in
        let ddz = w.Vec3.z -. rz in
        let r2 = (ddx *. ddx) +. (ddy *. ddy) +. (ddz *. ddz) in
        if r2 <= r_max2 then begin
          let g = norm *. exp (-.r2 *. inv_2s2) in
          let idx = gx + (t.nx * (gy + (t.ny * gz))) in
          f idx g ddx ddy ddz
        end
      done
    done
  done

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

let scratch_grids t ns =
  let total = t.nx * t.ny * t.nz in
  if Array.length t.scratch <> ns
     || (ns > 0 && Array.length t.scratch.(0) <> total)
  then t.scratch <- Array.init ns (fun _ -> Array.make total 0.);
  t.scratch

(* 1. Spread charges. Serial: accumulate directly into [re] in particle
   order (bitwise identical to the historical serial path). Parallel: each
   slot spreads its contiguous particle tile into a private scratch grid,
   then the grids are combined point-wise with the fixed-shape tree,
   itself tiled over the pool. *)
let spread ~exec t charges positions re =
  let n = Array.length positions in
  let ns = Exec.n_slots exec in
  if ns = 1 && not (Exec.sanitizing exec) then
    for i = 0 to n - 1 do
      let q = charges.(i) in
      if q <> 0. then
        iter_support t positions.(i) (fun idx g _ _ _ ->
            re.(idx) <- re.(idx) +. (q *. g))
    done
  else begin
    let grids = scratch_grids t ns in
    let p_tiles = Exec.tile_bounds ~total:n ~ntiles:ns in
    Exec.parallel_run ~phase:"gse.spread" exec (fun s ->
        let grid = grids.(s) in
        Array.fill grid 0 (Array.length grid) 0.;
        let lo, hi = p_tiles.(s) in
        (* Each slot spreads a particle tile into its private scratch grid;
           the racing surface is the particle partition. *)
        Exec.declare_write ~slot:s ~resource:"gse.spread" ~total:n ~lo ~hi
          exec;
        Exec.declare_read ~slot:s ~resource:"state.positions" ~lo ~hi exec;
        for i = lo to hi - 1 do
          let q = charges.(i) in
          if q <> 0. then
            iter_support t positions.(i) (fun idx g _ _ _ ->
                grid.(idx) <- grid.(idx) +. (q *. g))
        done);
    let total = t.nx * t.ny * t.nz in
    let g_tiles = Exec.tile_bounds ~total ~ntiles:ns in
    Exec.parallel_run ~phase:"gse.combine" exec (fun s ->
        let lo, hi = g_tiles.(s) in
        Exec.declare_write ~slot:s ~resource:"gse.grid_combine" ~total ~lo
          ~hi exec;
        (* The tree combine reads every slot's partial grid, i.e. the whole
           particle footprint the spread phase declared. *)
        Exec.declare_read ~slot:s ~resource:"gse.spread" ~lo:0 ~hi:n exec;
        for g = lo to hi - 1 do
          re.(g) <- tree_cell grids g 0 ns
        done)
  end

let reciprocal ?(exec = Exec.serial) ?phases t charges positions
    (acc : Mdsp_ff.Bonded.accum) =
  let n = Array.length positions in
  let ns = Exec.n_slots exec in
  let total = t.nx * t.ny * t.nz in
  let re = Array.make total 0. in
  let im = Array.make total 0. in
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
        let k_tiles = Exec.tile_bounds ~total ~ntiles:ns in
        Exec.parallel_run ~phase:"gse.convolve" exec (fun s ->
            let energy = ref 0. and virial = ref 0. in
            let lo, hi = k_tiles.(s) in
            Exec.declare_write ~slot:s ~resource:"gse.convolve" ~total ~lo
              ~hi exec;
            Exec.declare_read ~slot:s ~resource:"gse.convolve" ~total ~lo
              ~hi exec;
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
      let g_tiles = Exec.tile_bounds ~total ~ntiles:ns in
      Exec.parallel_run ~phase:"gse.phi_scale" exec (fun s ->
          let lo, hi = g_tiles.(s) in
          Exec.declare_write ~slot:s ~resource:"gse.phi_scale" ~total ~lo
            ~hi exec;
          Exec.declare_read ~slot:s ~resource:"gse.phi_scale" ~total ~lo
            ~hi exec;
          for k = lo to hi - 1 do
            re.(k) <- re.(k) *. phi_scale
          done));
  (* 5. Gather forces: F_i = q_i cell_vol / sigma^2 *
        sum_g phi_g (r_i - r_g) gauss. Particles are tiled over the pool;
     each slot writes only its own particles' force entries, so no scratch
     accumulators or reduction are needed and the per-particle arithmetic
     is identical to serial. *)
  let inv_s2 = 1. /. (t.sigma *. t.sigma) in
  timed phases
    (fun p d -> p.gather_s <- p.gather_s +. d)
    (fun () ->
      let p_tiles = Exec.tile_bounds ~total:n ~ntiles:ns in
      Exec.parallel_run ~phase:"gse.gather" exec (fun s ->
          let lo, hi = p_tiles.(s) in
          Exec.declare_write ~slot:s ~resource:"gse.gather" ~total:n ~lo ~hi
            exec;
          (* Accumulates into the slot's own force entries (same-slot
             read-modify-write). *)
          Exec.declare_read ~slot:s ~resource:"gse.gather" ~total:n ~lo ~hi
            exec;
          (* The support stencil strides the whole potential grid and the
             slot reads its own particles' positions. *)
          Exec.declare_read ~slot:s ~resource:"gse.grid" ~lo:0 ~hi:total
            exec;
          Exec.declare_read ~slot:s ~resource:"state.positions" ~lo ~hi
            exec;
          for i = lo to hi - 1 do
            let q = charges.(i) in
            if q <> 0. then begin
              let fx = ref 0. and fy = ref 0. and fz = ref 0. in
              iter_support t positions.(i) (fun idx g dx dy dz ->
                  let w = re.(idx) *. g in
                  fx := !fx +. (w *. dx);
                  fy := !fy +. (w *. dy);
                  fz := !fz +. (w *. dz));
              let c = q *. cell_vol *. inv_s2 *. Units.coulomb in
              acc.forces.(i) <-
                Vec3.add acc.forces.(i)
                  (Vec3.make (c *. !fx) (c *. !fy) (c *. !fz))
            end
          done));
  energy
