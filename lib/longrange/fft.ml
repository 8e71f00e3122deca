open Mdsp_util

let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let fft_1d ~sign re im =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Fft.fft_1d: length mismatch";
  if not (is_pow2 n) then invalid_arg "Fft.fft_1d: length must be a power of 2";
  (* Bit-reversal permutation. *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = re.(i) in
      re.(i) <- re.(!j);
      re.(!j) <- tr;
      let ti = im.(i) in
      im.(i) <- im.(!j);
      im.(!j) <- ti
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  (* Danielson–Lanczos butterflies. *)
  let mmax = ref 1 in
  while !mmax < n do
    let istep = !mmax * 2 in
    let theta = float_of_int sign *. Float.pi /. float_of_int !mmax in
    let wpr = -2. *. (sin (0.5 *. theta) ** 2.) in
    let wpi = sin theta in
    let wr = ref 1. and wi = ref 0. in
    for m = 0 to !mmax - 1 do
      let i = ref m in
      while !i < n do
        let k = !i + !mmax in
        let tr = (!wr *. re.(k)) -. (!wi *. im.(k)) in
        let ti = (!wr *. im.(k)) +. (!wi *. re.(k)) in
        re.(k) <- re.(!i) -. tr;
        im.(k) <- im.(!i) -. ti;
        re.(!i) <- re.(!i) +. tr;
        im.(!i) <- im.(!i) +. ti;
        i := !i + istep
      done;
      let wtemp = !wr in
      wr := (!wr *. (1. +. wpr)) -. (!wi *. wpi);
      wi := (!wi *. (1. +. wpr)) +. (wtemp *. wpi)
    done;
    mmax := istep
  done

(* The 3D transform is three sweeps of independent 1-D lines; each line is
   read into a per-slot scratch buffer, transformed, and written back to a
   disjoint region of the grid. Lines are statically tiled over the pool,
   so the parallel result is bitwise identical to the serial one: every
   line's arithmetic is untouched, only which domain runs it changes. *)
let fft_3d ?(exec = Exec.serial) ~sign ~nx ~ny ~nz re im =
  let total = nx * ny * nz in
  if Array.length re <> total || Array.length im <> total then
    invalid_arg "Fft.fft_3d: array size mismatch";
  (* The forward and inverse transforms are distinct dataflow phases: the
     convolve stage sits between them, so sharing one phase name per sweep
     would put a cycle in the happens-before graph. *)
  let prefix = if sign < 0 then "gse.fft_fwd" else "gse.fft_inv" in
  (* One sweep over [lines] lines of [len] points, [stride] apart; line [l]
     starts at [base l]. Each sweep's racing surface is its line-index
     space — strided element ranges interleave across slots, line indices
     don't — and a line transform is a read-modify-write of the slot's own
     lines. *)
  let pass ~phase ~resource ~lines ~len ~stride base =
    Exec.sweep ~phase ~reads:[ resource ] ~writes:[ resource ] exec lines
      (fun _ lo hi ->
        let b_re = Array.make len 0. and b_im = Array.make len 0. in
        for l = lo to hi - 1 do
          let b = base l in
          for j = 0 to len - 1 do
            b_re.(j) <- re.(b + (j * stride));
            b_im.(j) <- im.(b + (j * stride))
          done;
          fft_1d ~sign b_re b_im;
          for j = 0 to len - 1 do
            re.(b + (j * stride)) <- b_re.(j);
            im.(b + (j * stride)) <- b_im.(j)
          done
        done)
  in
  (* Along x (contiguous): one line per (y, z). *)
  pass ~phase:(prefix ^ ".x") ~resource:"fft.x_lines" ~lines:(ny * nz)
    ~len:nx ~stride:1 (fun l -> nx * l);
  (* Along y: one strided line per (x, z). *)
  pass ~phase:(prefix ^ ".y") ~resource:"fft.y_lines" ~lines:(nx * nz)
    ~len:ny ~stride:nx (fun l -> (l mod nx) + (nx * ny * (l / nx)));
  (* Along z: one strided line per (x, y). *)
  pass ~phase:(prefix ^ ".z") ~resource:"fft.z_lines" ~lines:(nx * ny)
    ~len:nz ~stride:(nx * ny) (fun l -> l)
