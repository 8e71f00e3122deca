open Mdsp_util

type longrange =
  | Lr_none
  | Lr_ewald of Mdsp_longrange.Ewald.t
  | Lr_gse of Mdsp_longrange.Gse.t

type energies = {
  bond : float;
  angle : float;
  dihedral : float;
  pair : float;
  recip : float;
  correction : float;
  bias : float;
}

let total e =
  e.bond +. e.angle +. e.dihedral +. e.pair +. e.recip +. e.correction
  +. e.bias

let zero_energies =
  {
    bond = 0.;
    angle = 0.;
    dihedral = 0.;
    pair = 0.;
    recip = 0.;
    correction = 0.;
    bias = 0.;
  }

type bias = {
  bias_name : string;
  bias_compute : Pbc.t -> Vec3.t array -> Mdsp_ff.Bonded.accum -> float;
}

type transform = {
  tr_name : string;
  tr_apply : Pbc.t -> Vec3.t array -> Mdsp_ff.Bonded.accum -> float -> float;
}

module K = Soa_kernels
module P = Mdsp_ff.Pair_interactions

(* The flat particle store every calculator runs its bonded, 1-4 and flat
   pair kernels on, with the per-slot scratch for the parallel phases. Slot
   stores share the position columns with [store] (only their force
   columns are private), so one load serves every phase. *)
type flat = {
  store : Soa.t;
  sc : K.scratch;
  slot_stores : Soa.t array;
  slot_fx : Soa.fa array;
  slot_fy : Soa.fa array;
  slot_fz : Soa.fa array;
  slot_sc : K.scratch array;
  (* Per-phase slot outputs, preallocated; every slot overwrites its entry
     before any read, so they carry no state across phases. *)
  slot_energy : float array;
  slot_virial : float array;
  eb : float array;
  ea : float array;
}

let make_flat ~exec natoms =
  let store = Soa.create natoms in
  let ns = Exec.n_slots exec in
  (* Sanitizing runs take the parallel (declaring) branches even at one
     slot, so they need the slot scratch sized. *)
  let nslots = if ns > 1 || Exec.sanitizing exec then ns else 0 in
  let slot_stores =
    Array.init nslots (fun _ ->
        {
          store with
          Soa.fx = Soa.make_fa natoms;
          Soa.fy = Soa.make_fa natoms;
          Soa.fz = Soa.make_fa natoms;
        })
  in
  {
    store;
    sc = K.make_scratch ();
    slot_stores;
    slot_fx = Array.map (fun s -> s.Soa.fx) slot_stores;
    slot_fy = Array.map (fun s -> s.Soa.fy) slot_stores;
    slot_fz = Array.map (fun s -> s.Soa.fz) slot_stores;
    slot_sc = Array.init nslots (fun _ -> K.make_scratch ());
    slot_energy = Array.make (max nslots 1) 0.;
    slot_virial = Array.make (max nslots 1) 0.;
    eb = Array.make (max nslots 1) 0.;
    ea = Array.make (max nslots 1) 0.;
  }

(* The loop the pair phase runs: the flat analytic kernel, or the generic
   loop over the evaluator's [eval]. Either carries the flat parameters
   the 1-4 kernel reads. *)
type pair_kernel = Flat of K.pair_params | Generic of K.pair_params

(* The installed evaluator alone picks the kernel. An analytic
   [of_topology] evaluator for this topology gets the flat loop, with
   parameters rebuilt from its own recipe and cutoff; tables, FEP lambdas,
   Switch and custom forms get the generic loop. The 1-4 terms run flat
   either way, at the evaluator's cutoff. *)
let kernels_of topo (ev : P.evaluator) =
  let flat =
    match ev.P.form with
    | Some f when f.P.topo == topo ->
        K.pair_params_of_topology topo ~cutoff:ev.P.cutoff ~trunc:f.P.trunc
          ~elec:f.P.elec
    | _ -> None
  in
  match flat with
  | Some pp -> Flat pp
  | None -> Generic (K.pairs14_params topo ~cutoff:ev.P.cutoff)

type t = {
  topo : Mdsp_ff.Topology.t;
  mutable evaluator : P.evaluator;
  mutable kernel : pair_kernel;
  longrange : longrange;
  nlist : Mdsp_space.Neighbor_list.t;
  (* Newest-first; every consumer restores registration order. *)
  mutable biases_rev : bias list;
  mutable transform : transform option;
  charges : float array;
  exec : Exec.t;
  (* Per-slot accumulators of the generic pair loop, built on first use. *)
  slots : Mdsp_ff.Bonded.accum array Lazy.t;
  (* Cached handle for the GSE self/excluded corrections: those depend only
     on beta (self) or on the box passed per call (excluded), so the handle
     never goes stale even under a barostat. *)
  mutable gse_ewald : Mdsp_longrange.Ewald.t option;
  flat : flat;
  clock : Timer.table;
  (* Minor words allocated inside the serial flat pair window. *)
  mutable pair_words : float;
}

let create ?(exec = Exec.serial) topo ~evaluator ~longrange ~nlist =
  let ns = Exec.n_slots exec in
  let natoms = Mdsp_ff.Topology.n_atoms topo in
  {
    topo;
    evaluator;
    kernel = kernels_of topo evaluator;
    longrange;
    nlist;
    biases_rev = [];
    transform = None;
    charges = Mdsp_ff.Topology.charges topo;
    exec;
    slots =
      lazy
        (if ns > 1 || Exec.sanitizing exec then
           Mdsp_ff.Bonded.make_slots ~slots:ns natoms
         else [||]);
    gse_ewald = None;
    flat = make_flat ~exec natoms;
    clock = Timer.table ();
    pair_words = 0.;
  }

let topology t = t.topo
let evaluator t = t.evaluator
let nlist t = t.nlist
let exec t = t.exec

let longrange_kind t =
  match t.longrange with
  | Lr_none -> `None
  | Lr_ewald _ -> `Ewald
  | Lr_gse gse -> `Gse (Mdsp_longrange.Gse.grid gse)

let set_evaluator t e =
  t.evaluator <- e;
  t.kernel <- kernels_of t.topo e

let pair_kernel t = match t.kernel with Flat _ -> `Flat | Generic _ -> `Generic
let add_bias t b = t.biases_rev <- b :: t.biases_rev

let remove_bias t name =
  let before = List.length t.biases_rev in
  t.biases_rev <- List.filter (fun b -> b.bias_name <> name) t.biases_rev;
  List.length t.biases_rev < before

let biases t = List.rev_map (fun b -> b.bias_name) t.biases_rev
let set_transform t tr = t.transform <- tr

let clock t = t.clock
let pair_minor_words t = t.pair_words

let reset_clock t =
  Timer.reset t.clock;
  t.pair_words <- 0.

let compute_biases t box positions acc =
  List.fold_left
    (fun e b -> e +. b.bias_compute box positions acc)
    0.
    (List.rev t.biases_rev)

let gse_correction_handle t gse box =
  match t.gse_ewald with
  | Some ew -> ew
  | None ->
      (* Minimal k list: only the beta-dependent correction terms are used. *)
      let ew =
        Mdsp_longrange.Ewald.create ~beta:(Mdsp_longrange.Gse.beta gse)
          ~kmax:1 box
      in
      t.gse_ewald <- Some ew;
      ew

let compute_longrange t box positions acc =
  match t.longrange with
  | Lr_none -> (0., 0.)
  | Lr_ewald ew ->
      let recip = Mdsp_longrange.Ewald.reciprocal ew t.charges positions acc in
      let corr =
        Mdsp_longrange.Ewald.self_energy ew t.charges
        +. Mdsp_longrange.Ewald.excluded_correction ew box t.charges positions
             t.topo.exclusions acc
      in
      (recip, corr)
  | Lr_gse gse ->
      let ph = Mdsp_longrange.Gse.zero_phases () in
      let recip =
        Mdsp_longrange.Gse.reciprocal ~exec:t.exec ~phases:ph gse t.charges
          positions acc
      in
      Timer.charge t.clock "lr.spread" ph.Mdsp_longrange.Gse.spread_s;
      Timer.charge t.clock "lr.fft" ph.Mdsp_longrange.Gse.fft_s;
      Timer.charge t.clock "lr.convolve" ph.Mdsp_longrange.Gse.convolve_s;
      Timer.charge t.clock "lr.gather" ph.Mdsp_longrange.Gse.gather_s;
      let ew = gse_correction_handle t gse box in
      let corr =
        Mdsp_longrange.Ewald.self_energy ew t.charges
        +. Mdsp_longrange.Ewald.excluded_correction ew box t.charges positions
             t.topo.exclusions acc
      in
      (recip, corr)

(* Neighbor refresh: the staleness check and any rebuild are charged to
   [neighbor], the rebuild alone also to [neighbor.build]. *)
let refresh_neighbors t box positions =
  let module NL = Mdsp_space.Neighbor_list in
  Timer.span t.clock "neighbor" (fun () ->
      if NL.needs_rebuild ~box t.nlist positions then
        Timer.span t.clock "neighbor.build" (fun () ->
            ignore (NL.rebuild ~box t.nlist positions)))

(* --- the force phases ----------------------------------------------- *)

let serial t = Exec.n_slots t.exec = 1 && not (Exec.sanitizing t.exec)

(* Load positions into the flat store and reset its accumulators; charged
   to whichever phase runs first. With a multi-slot executor this is the
   declared ["soa.load"] phase. *)
let flat_load t box positions =
  let store = t.flat.store in
  store.Soa.box <- box;
  Soa.sync_load ~exec:t.exec store positions;
  K.reset_scratch t.flat.sc

(* Flush the flat force sums and the virial into [acc] (reset by the
   caller). Plain overwrite: the flat kernels accumulate in the order of
   the reference kernels, so this reproduces their accumulator bits. The
   generic pair loop, long-range and bias phases then add into [acc]; with
   a multi-slot executor this is the declared ["soa.store"] phase. *)
let flat_flush t acc =
  Soa.sync_store ~exec:t.exec t.flat.store acc;
  acc.Mdsp_ff.Bonded.virial <- t.flat.sc.K.virial

(* One slot-accumulating force phase on the pool. Each slot clears its
   private force columns and scratch, declares the whole-[soa.positions]
   read (terms index arbitrary atoms), runs [body s store scratch] — which
   declares its own tile and returns the slot's energy — and keeps its
   virial. The slot partials are then tree-reduced into the flat store,
   [reads] naming the iteration spaces [body] declared; the result is the
   tree sum of the slot energies. *)
let slot_phase t ~phase ~reads body =
  let fl = t.flat in
  let natoms = Soa.n fl.store in
  Exec.parallel_run ~phase t.exec (fun s ->
      let sst = fl.slot_stores.(s) and ssc = fl.slot_sc.(s) in
      Soa.clear_forces sst;
      K.reset_scratch ssc;
      Exec.declare_read ~slot:s ~resource:"soa.positions" ~lo:0 ~hi:natoms
        t.exec;
      fl.slot_energy.(s) <- body s sst ssc;
      fl.slot_virial.(s) <- ssc.K.virial);
  K.reduce_slots ~exec:t.exec ~reads ~into:fl.store ~slot_fx:fl.slot_fx
    ~slot_fy:fl.slot_fy ~slot_fz:fl.slot_fz ~slot_virial:fl.slot_virial fl.sc;
  Exec.sum_tree fl.slot_energy

(* Bonded terms on the flat store, with the serial/parallel split, per-term
   tilings, declares and reduction tree of [Bonded.all]. *)
let flat_bonded t box =
  let topo = t.topo in
  let fl = t.flat in
  let ns = Exec.n_slots t.exec in
  let store = fl.store in
  let sc = fl.sc in
  let nb = Array.length topo.Mdsp_ff.Topology.bonds in
  let na = Array.length topo.Mdsp_ff.Topology.angles in
  let nd = Array.length topo.Mdsp_ff.Topology.dihedrals in
  let ni = Array.length topo.Mdsp_ff.Topology.impropers in
  if serial t || Mdsp_ff.Bonded.term_count topo = 0 then begin
    sc.K.energy <- 0.;
    K.bonds_range box topo store 0 nb sc;
    let eb = sc.K.energy in
    sc.K.energy <- 0.;
    K.angles_range box topo store 0 na sc;
    let ea = sc.K.energy in
    sc.K.energy <- 0.;
    K.dihedrals_range box topo store 0 nd sc;
    let e_d = sc.K.energy in
    sc.K.energy <- 0.;
    K.impropers_range box topo store 0 ni sc;
    (eb, ea, e_d +. sc.K.energy)
  end
  else begin
    let b_tiles = Exec.tile_bounds ~total:nb ~ntiles:ns in
    let a_tiles = Exec.tile_bounds ~total:na ~ntiles:ns in
    let d_tiles = Exec.tile_bounds ~total:nd ~ntiles:ns in
    let i_tiles = Exec.tile_bounds ~total:ni ~ntiles:ns in
    let eb = fl.eb and ea = fl.ea in
    let ed =
      slot_phase t ~phase:"bonded"
        ~reads:
          [
            ("bonded.bonds", nb);
            ("bonded.angles", na);
            ("bonded.dihedrals", nd);
            ("bonded.impropers", ni);
          ]
        (fun s sst ssc ->
          let declare resource tiles total =
            let lo, hi = tiles in
            Exec.declare_write ~slot:s ~resource ~total ~lo ~hi t.exec
          in
          declare "bonded.bonds" b_tiles.(s) nb;
          declare "bonded.angles" a_tiles.(s) na;
          declare "bonded.dihedrals" d_tiles.(s) nd;
          declare "bonded.impropers" i_tiles.(s) ni;
          let lo, hi = b_tiles.(s) in
          ssc.K.energy <- 0.;
          K.bonds_range box topo sst lo hi ssc;
          eb.(s) <- ssc.K.energy;
          let lo, hi = a_tiles.(s) in
          ssc.K.energy <- 0.;
          K.angles_range box topo sst lo hi ssc;
          ea.(s) <- ssc.K.energy;
          let lo, hi = d_tiles.(s) in
          ssc.K.energy <- 0.;
          K.dihedrals_range box topo sst lo hi ssc;
          let e_d = ssc.K.energy in
          let lo, hi = i_tiles.(s) in
          ssc.K.energy <- 0.;
          K.impropers_range box topo sst lo hi ssc;
          e_d +. ssc.K.energy)
    in
    (Exec.sum_tree eb, Exec.sum_tree ea, ed)
  end

(* Scaled 1-4 terms on the flat store; the skip condition and the tiling
   are those of [Pair_interactions.compute_pairs14]. *)
let flat_pairs14 t box =
  let params = match t.kernel with Flat pp | Generic pp -> pp in
  let fl = t.flat in
  if not (K.pairs14_active params) then 0.
  else if serial t then begin
    let sc = fl.sc in
    sc.K.energy <- 0.;
    K.pairs14_range params box fl.store 0 (K.pairs14_count params) sc;
    sc.K.energy
  end
  else begin
    let np = K.pairs14_count params in
    let tiles = Exec.tile_bounds ~total:np ~ntiles:(Exec.n_slots t.exec) in
    slot_phase t ~phase:"pair14" ~reads:[ ("pair.pairs14", np) ]
      (fun s sst ssc ->
        let lo, hi = tiles.(s) in
        Exec.declare_write ~slot:s ~resource:"pair.pairs14" ~total:np ~lo ~hi
          t.exec;
        K.pairs14_range params box sst lo hi ssc;
        ssc.K.energy)
  end

(* The flat pair kernel over the neighbor list, with the tiling of
   [Pair_interactions.compute]. The serial loop sits alone inside a
   minor-heap probe: the window holds only a unit-returning kernel call and
   float-record field traffic, so an LJ pair loop measures exactly zero
   words. The raw-array fetch and the word-counter update stay outside. *)
let flat_pair t pp box =
  let fl = t.flat in
  let is, js = Mdsp_space.Neighbor_list.raw_pairs t.nlist in
  if serial t then begin
    let npairs = Mdsp_space.Neighbor_list.length t.nlist in
    let sc = fl.sc in
    let w0 = Gc.minor_words () in
    sc.K.energy <- 0.;
    K.pair_range pp box fl.store ~is ~js 0 npairs sc;
    let w1 = Gc.minor_words () in
    t.pair_words <- t.pair_words +. (w1 -. w0);
    sc.K.energy
  end
  else begin
    let ns = Exec.n_slots t.exec in
    let tiles = Mdsp_space.Neighbor_list.tiles t.nlist ~ntiles:ns in
    let total = snd tiles.(ns - 1) in
    slot_phase t ~phase:"pair" ~reads:[ ("pair.tiles", total) ]
      (fun s sst ssc ->
        let lo, hi = tiles.(s) in
        Exec.declare_write ~slot:s ~resource:"pair.tiles" ~total ~lo ~hi
          t.exec;
        Exec.declare_read ~slot:s ~resource:"nlist.pairs" ~total ~lo ~hi
          t.exec;
        K.pair_range pp box sst ~is ~js lo hi ssc;
        ssc.K.energy)
  end

(* The pair kernel the evaluator picked, and the flush of the flat sums
   into [acc]. The flat loop accumulates on the store before the flush; the
   generic loop adds into [acc] after it. Either way [acc] sums bonded,
   1-4 and pair forces in the order of the reference sum
   [Bonded.all] + [compute_pairs14] + [Pair_interactions.compute]. *)
let pair_phase t box positions acc =
  match t.kernel with
  | Flat pp ->
      let p = flat_pair t pp box in
      flat_flush t acc;
      p
  | Generic _ ->
      flat_flush t acc;
      P.compute ~exec:t.exec ~slots:(Lazy.force t.slots) t.evaluator box
        t.nlist positions acc

let compute t box positions acc =
  Mdsp_ff.Bonded.reset acc;
  let clk = t.clock in
  refresh_neighbors t box positions;
  let bond, angle, dihedral =
    Timer.span clk "bonded" (fun () ->
        flat_load t box positions;
        flat_bonded t box)
  in
  let pair =
    Timer.span clk "pair" (fun () ->
        let pair14 = flat_pairs14 t box in
        pair14 +. pair_phase t box positions acc)
  in
  let recip, correction =
    Timer.span clk "lr" (fun () -> compute_longrange t box positions acc)
  in
  let e =
    Timer.span clk "bias" (fun () ->
        let bias = compute_biases t box positions acc in
        let e = { bond; angle; dihedral; pair; recip; correction; bias } in
        match t.transform with
        | None -> e
        | Some tr ->
            let boost = tr.tr_apply box positions acc (total e) in
            { e with bias = e.bias +. boost })
  in
  Timer.tick clk;
  e

let compute_class t cls box positions acc =
  Mdsp_ff.Bonded.reset acc;
  let clk = t.clock in
  match cls with
  | `Fast ->
      let bond, angle, dihedral =
        Timer.span clk "bonded" (fun () ->
            flat_load t box positions;
            flat_bonded t box)
      in
      let pair14 =
        Timer.span clk "pair" (fun () ->
            let p = flat_pairs14 t box in
            flat_flush t acc;
            p)
      in
      let bias =
        Timer.span clk "bias" (fun () -> compute_biases t box positions acc)
      in
      { zero_energies with bond; angle; dihedral; pair = pair14; bias }
  | `Slow ->
      refresh_neighbors t box positions;
      let pair =
        Timer.span clk "pair" (fun () ->
            flat_load t box positions;
            pair_phase t box positions acc)
      in
      let recip, correction =
        Timer.span clk "lr" (fun () -> compute_longrange t box positions acc)
      in
      Timer.tick clk;
      { zero_energies with pair; recip; correction }
