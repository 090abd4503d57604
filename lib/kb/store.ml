(* Columnar TI fact store. See store.mli for the layout contract. *)

module Q = Ipdb_bignum.Q
module Zint = Ipdb_bignum.Zint
module Nat = Ipdb_bignum.Nat
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Fact = Ipdb_relational.Fact
module Metrics = Ipdb_obs.Metrics
module Trace = Ipdb_obs.Trace
module Json = Ipdb_obs.Json

let m_index_builds = Metrics.counter "kb.index.builds"

(* A built access-pattern index. [Keyed] serves every mask with bound
   and free positions: [groups] holds one ascending row array per
   distinct key, keys in lexicographic order of their bound positions;
   the groups whose first bound position holds value id [v] are
   [first.(v) .. first.(v + 1) - 1], and [rest] lists the bound
   positions after the first. *)
type index = All of int array | Keyed of { first : int array; groups : int array array; rest : int array }

type table = {
  name : string;
  arity : int;
  mutable nrows : int;
  mutable cols : int array array;  (* [arity] columns of length [cap] *)
  mutable max_id : int;  (* largest value id in any column, -1 when empty *)
  mutable pnum : int array;  (* marginal numerator, small-int fast path *)
  mutable pden : int array;  (* denominator; 0 marks a spilled marginal *)
  spill : (int, Q.t) Hashtbl.t;  (* row -> exact marginal, when spilled *)
  (* the row set: every row id, hashed over its column ids; duplicate
     rejection, marginal lookup and ground-atom probes (see [row_slot]) *)
  mutable rowset : int array;
  mutable rowset_bits : int;
  (* per-mask pattern index, built lazily on first use and dropped on
     mutation. Slots are Atomic so a build publishes safely to
     concurrently-querying domains; the mutex only serialises builders. *)
  index_slots : index option Atomic.t array;
  index_mutex : Mutex.t;
  mutable any_index : bool;
}

(* Multiplying by an odd 62-bit constant (the golden ratio, scaled)
   pushes every input bit into the high bits, so both hash tables below
   index by high bits. Hashtbl.hash instead xor-folds an int's high half
   onto its low half, so ints packed from small ids would collide by the
   thousand, and it is a C call. *)
let mix h id = (h lxor id) * 0x278DDE6E5FD29F05

(* Int values intern through their own table, keyed by the native int. *)
module Ints = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash n = mix 0 n lsr 31
end)

type t = {
  mutable tables : (string * table) list;  (* name order *)
  ints : int Ints.t;
  interner : (Value.t, int) Hashtbl.t;  (* every other value *)
  mutable values : Value.t array;  (* id -> value *)
  mutable nvalues : int;
  scratch : int array;  (* ids of the fact [add] is inserting *)
}

(* 2^arity index slots per table; keeps the slot array word-sized *)
let max_arity = 12

let table_create name arity =
  {
    name;
    arity;
    nrows = 0;
    max_id = -1;
    cols = Array.init arity (fun _ -> Array.make 16 0);
    pnum = Array.make 16 0;
    pden = Array.make 16 0;
    spill = Hashtbl.create 4;
    rowset = Array.make 32 (-1);
    rowset_bits = 5;
    index_slots = Array.init (1 lsl arity) (fun _ -> Atomic.make None);
    index_mutex = Mutex.create ();
    any_index = false;
  }

let create relations =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (name, arity) ->
      if arity < 0 || arity > max_arity then
        invalid_arg (Printf.sprintf "Store.create: arity %d for %s outside [0, %d]" arity name max_arity);
      if Hashtbl.mem seen name then invalid_arg ("Store.create: duplicate relation " ^ name);
      Hashtbl.add seen name arity)
    relations;
  let tables =
    List.sort (fun (a, _) (b, _) -> String.compare a b) relations
    |> List.map (fun (name, arity) -> (name, table_create name arity))
  in
  {
    tables;
    ints = Ints.create 1024;
    interner = Hashtbl.create 64;
    values = Array.make 1024 Value.Bot;
    nvalues = 0;
    scratch = Array.make max_arity 0;
  }

let declare t name arity =
  match List.assoc_opt name t.tables with
  | Some tbl -> if tbl.arity = arity then Ok () else Error (Printf.sprintf "relation %s redeclared with arity %d (was %d)" name arity tbl.arity)
  | None ->
    if arity < 0 || arity > max_arity then
      Error (Printf.sprintf "arity %d for %s outside [0, %d]" arity name max_arity)
    else begin
      t.tables <-
        List.merge (fun (a, _) (b, _) -> String.compare a b) t.tables [ (name, table_create name arity) ];
      Ok ()
    end

let schema t = List.map (fun (name, tbl) -> (name, tbl.arity)) t.tables

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

let new_value t v =
  let id = t.nvalues in
  if id = Array.length t.values then begin
    let bigger = Array.make (2 * id) Value.Bot in
    Array.blit t.values 0 bigger 0 id;
    t.values <- bigger
  end;
  t.values.(id) <- v;
  t.nvalues <- id + 1;
  id

let intern_int t n =
  match Ints.find t.ints n with
  | id -> id
  | exception Not_found ->
    let id = new_value t (Value.Int n) in
    Ints.add t.ints n id;
    id

let intern t v =
  match v with
  | Value.Int n -> intern_int t n
  | _ -> (
    match Hashtbl.find t.interner v with
    | id -> id
    | exception Not_found ->
      let id = new_value t v in
      Hashtbl.add t.interner v id;
      id)

let intern_find t v =
  match v with
  | Value.Int n -> Ints.find_opt t.ints n
  | _ -> Hashtbl.find_opt t.interner v

let value_of_id t id = t.values.(id)
let distinct_values t = t.nvalues

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

let grow_table tbl =
  let cap = Array.length tbl.pnum in
  let bigger a =
    let b = Array.make (2 * cap) 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  tbl.cols <- Array.map bigger tbl.cols;
  tbl.pnum <- bigger tbl.pnum;
  tbl.pden <- bigger tbl.pden

(* The row set is a power-of-two slot array of row ids, -1 for empty, at
   most half full, probed linearly from the top [rowset_bits] bits of the
   [mix] of the row's ids. *)
let slot_of h bits = h lsr (Sys.int_size - bits)

(* Row-set hashes: of a key's ids, and of a stored row's (equal for equal
   tuples). *)
let key_hash tbl key =
  let h = ref 0 in
  for pos = 0 to tbl.arity - 1 do
    h := mix !h key.(pos)
  done;
  !h

let row_hash tbl row =
  let h = ref 0 in
  for pos = 0 to tbl.arity - 1 do
    h := mix !h tbl.cols.(pos).(row)
  done;
  !h

(* The row-set slot holding the row whose ids are [key.(0 .. arity-1)],
   or the empty slot where it belongs. *)
let row_slot tbl key =
  let mask = Array.length tbl.rowset - 1 in
  let i = ref (slot_of (key_hash tbl key) tbl.rowset_bits) in
  let searching = ref true in
  while !searching do
    let row = tbl.rowset.(!i) in
    if row < 0 then searching := false
    else begin
      let pos = ref 0 in
      while !pos < tbl.arity && tbl.cols.(!pos).(row) = key.(!pos) do
        incr pos
      done;
      if !pos = tbl.arity then searching := false else i := (!i + 1) land mask
    end
  done;
  !i

(* The row holding [key], or -1. *)
let find_row tbl key = tbl.rowset.(row_slot tbl key)

let grow_rowset tbl =
  tbl.rowset_bits <- tbl.rowset_bits + 1;
  tbl.rowset <- Array.make (1 lsl tbl.rowset_bits) (-1);
  let mask = Array.length tbl.rowset - 1 in
  for row = 0 to tbl.nrows - 1 do
    (* rows are distinct, so the first empty slot is the row's *)
    let i = ref (slot_of (row_hash tbl row) tbl.rowset_bits) in
    while tbl.rowset.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    tbl.rowset.(!i) <- row
  done

let set_prob tbl row p =
  match (Zint.to_int_opt (Q.num p), Nat.to_int_opt (Q.den p)) with
  | Some n, Some d when d > 0 ->
    tbl.pnum.(row) <- n;
    tbl.pden.(row) <- d
  | _ ->
    tbl.pnum.(row) <- 0;
    tbl.pden.(row) <- 0;
    Hashtbl.replace tbl.spill row p

let row_prob tbl row =
  let d = tbl.pden.(row) in
  (* The stored pair was destructured from a normalised rational in
     [set_prob], or gcd-reduced by the loader, so it is coprime with
     d > 0: rebuilding with [of_ints_reduced] skips the per-lookup GCD.
     (Reference mode re-verifies the coprimality contract.) *)
  if d <> 0 then Q.of_ints_reduced tbl.pnum.(row) d else Hashtbl.find tbl.spill row

let row_prob_num tbl row = tbl.pnum.(row)
let row_prob_den tbl row = tbl.pden.(row)

(* ------------------------------------------------------------------ *)
(* Inserting                                                           *)
(* ------------------------------------------------------------------ *)

type rel_handle = table

let resolve t rel =
  match List.assoc rel t.tables with
  | tbl -> Ok tbl
  | exception Not_found -> Error (Printf.sprintf "unknown relation %s" rel)

let admit tbl ~nargs ~num ~den p =
  if nargs <> tbl.arity then
    Error (Printf.sprintf "relation %s has arity %d, got %d values" tbl.name tbl.arity nargs)
  else if den > 0 then
    if num < 0 || num > den then Error (Printf.sprintf "marginal %s outside [0, 1]" (Q.to_string (Q.of_ints num den)))
    else if num = 0 then Ok false
    else Ok true
  else if not (Q.is_probability p) then Error (Printf.sprintf "marginal %s outside [0, 1]" (Q.to_string p))
  else if Q.is_zero p then Ok false
  else Ok true

let insert tbl ids ~num ~den p =
  let s = row_slot tbl ids in
  if tbl.rowset.(s) >= 0 then Error (Printf.sprintf "duplicate fact %s" tbl.name)
  else begin
    let row = tbl.nrows in
    if row = Array.length tbl.pnum then grow_table tbl;
    for pos = 0 to tbl.arity - 1 do
      tbl.cols.(pos).(row) <- ids.(pos);
      if ids.(pos) > tbl.max_id then tbl.max_id <- ids.(pos)
    done;
    if den > 0 then begin
      tbl.pnum.(row) <- num;
      tbl.pden.(row) <- den
    end
    else set_prob tbl row p;
    tbl.rowset.(s) <- row;
    tbl.nrows <- row + 1;
    if 2 * tbl.nrows > Array.length tbl.rowset then grow_rowset tbl;
    (* pattern indexes are snapshots of the row set; invalidate *)
    if tbl.any_index then begin
      Mutex.lock tbl.index_mutex;
      Array.iter (fun slot -> Atomic.set slot None) tbl.index_slots;
      tbl.any_index <- false;
      Mutex.unlock tbl.index_mutex
    end;
    Ok ()
  end

let add t ~rel args p =
  match resolve t rel with
  | Error msg -> Error msg
  | Ok tbl -> (
    match admit tbl ~nargs:(Array.length args) ~num:0 ~den:0 p with
    | Error msg -> Error msg
    | Ok false -> Ok () (* a zero marginal carries no information *)
    | Ok true ->
      for pos = 0 to tbl.arity - 1 do
        t.scratch.(pos) <- intern t args.(pos)
      done;
      insert tbl t.scratch ~num:0 ~den:0 p)

let fact_count t = List.fold_left (fun acc (_, tbl) -> acc + tbl.nrows) 0 t.tables

let spilled t = List.fold_left (fun acc (_, tbl) -> acc + Hashtbl.length tbl.spill) 0 t.tables

let expected_size t =
  (* Batched accumulation: normalisation is deferred until the running
     denominator grows large, then once more at [total]. *)
  let s = Q.Accum.create () in
  List.iter
    (fun (_, tbl) ->
      for row = 0 to tbl.nrows - 1 do
        Q.Accum.add s (row_prob tbl row)
      done)
    t.tables;
  Q.Accum.total s

let marginal t ~rel args =
  match List.assoc_opt rel t.tables with
  | None -> Q.zero
  | Some tbl when Array.length args <> tbl.arity -> Q.zero
  | Some tbl -> (
    let ids = Array.map (fun v -> intern_find t v) args in
    if Array.exists Option.is_none ids then Q.zero
    else begin
      match find_row tbl (Array.map Option.get ids) with
      | -1 -> Q.zero
      | row -> row_prob tbl row
    end)

let iter t f =
  List.iter
    (fun (name, tbl) ->
      for row = 0 to tbl.nrows - 1 do
        let args = Array.map (fun col -> t.values.(col.(row))) tbl.cols in
        f name args (row_prob tbl row)
      done)
    t.tables

let to_ti t =
  let facts = ref [] in
  iter t (fun rel args p -> facts := (Fact.make rel (Array.to_list args), p) :: !facts);
  Ipdb_pdb.Ti.Finite.make (Schema.make (schema t)) (List.rev !facts)

let of_ti ti =
  let t = create (Schema.relations (Ipdb_pdb.Ti.Finite.schema ti)) in
  List.iter
    (fun (f, p) ->
      match add t ~rel:(Fact.rel f) (Array.of_list (Fact.args f)) p with
      | Ok () -> ()
      | Error m -> invalid_arg ("Store.of_ti: " ^ m))
    (Ipdb_pdb.Ti.Finite.facts ti);
  t

(* ------------------------------------------------------------------ *)
(* Query-engine surface                                                *)
(* ------------------------------------------------------------------ *)

let handle t name = List.assoc_opt name t.tables
let handle_arity tbl = tbl.arity
let handle_rows tbl = tbl.nrows
let handle_name tbl = tbl.name
let cell tbl ~row ~pos = tbl.cols.(pos).(row)

(* The [i]th row of an order: [None] is every row, ascending. *)
let row_at order i = match order with None -> i | Some rows -> rows.(i)

(* Counting sort by [col]: per value id up to the table's [max_id], the
   rows holding it, in their [order]. Two passes: count per id, then
   fill. *)
let buckets tbl col order =
  let n = match order with None -> tbl.nrows | Some rows -> Array.length rows in
  let count = Array.make (tbl.max_id + 1) 0 in
  for i = 0 to n - 1 do
    let v = col.(row_at order i) in
    count.(v) <- count.(v) + 1
  done;
  let out = Array.map (fun c -> if c = 0 then [||] else Array.make c 0) count in
  Array.fill count 0 (tbl.max_id + 1) 0;
  for i = 0 to n - 1 do
    let row = row_at order i in
    let v = col.(row) in
    out.(v).(count.(v)) <- row;
    count.(v) <- count.(v) + 1
  done;
  out

(* Whether rows [a] and [b] agree on the [rest] positions. *)
let same_rest tbl rest a b =
  let j = ref 0 in
  while !j < Array.length rest && tbl.cols.(rest.(!j)).(a) = tbl.cols.(rest.(!j)).(b) do
    incr j
  done;
  !j = Array.length rest

(* Lexicographic comparison of [row]'s ids at the [rest] positions with
   [key.(1 ..)], the key after its first bound position. *)
let compare_rest tbl rest row key =
  let c = ref 0 and j = ref 0 in
  while !c = 0 && !j < Array.length rest do
    c := Int.compare tbl.cols.(rest.(!j)).(row) key.(!j + 1);
    incr j
  done;
  !c

(* Group the rows by key: a stable counting sort per bound position
   after the first, from the last (LSD radix sort), orders the rows by
   the rest of the key; bucketing that order by the first bound position
   and cutting each bucket where the rest changes gives the groups in
   key order, each in ascending row order. *)
let build_index tbl mask =
  Metrics.incr m_index_builds;
  if mask = 0 then All (Array.init tbl.nrows Fun.id)
  else begin
    let bound = List.filter (fun pos -> mask land (1 lsl pos) <> 0) (List.init tbl.arity Fun.id) in
    let rest = Array.of_list (List.tl bound) in
    let order =
      Array.fold_right
        (fun pos order -> Some (Array.concat (Array.to_list (buckets tbl tbl.cols.(pos) order))))
        rest None
    in
    let by_first = buckets tbl tbl.cols.(List.hd bound) order in
    let first = Array.make (Array.length by_first + 1) 0 in
    let groups = ref [] and ngroups = ref 0 in
    Array.iteri
      (fun v bucket ->
        first.(v) <- !ngroups;
        let n = Array.length bucket and lo = ref 0 in
        for i = 1 to n do
          if i = n || (Array.length rest > 0 && not (same_rest tbl rest bucket.(i - 1) bucket.(i))) then begin
            groups := (if !lo = 0 && i = n then bucket else Array.sub bucket !lo (i - !lo)) :: !groups;
            incr ngroups;
            lo := i
          end
        done)
      by_first;
    first.(Array.length by_first) <- !ngroups;
    Keyed { first; groups = Array.of_list (List.rev !groups); rest }
  end

let index_for tbl mask =
  match Atomic.get tbl.index_slots.(mask) with
  | Some index -> index
  | None ->
    Mutex.lock tbl.index_mutex;
    let index =
      match Atomic.get tbl.index_slots.(mask) with
      | Some index -> index
      | None ->
        let attrs = [ ("rel", Json.String tbl.name); ("mask", Json.Int mask); ("rows", Json.Int tbl.nrows) ] in
        let index = Trace.with_span ~attrs "store.index_build" (fun () -> build_index tbl mask) in
        Atomic.set tbl.index_slots.(mask) (Some index);
        tbl.any_index <- true;
        index
    in
    Mutex.unlock tbl.index_mutex;
    index

let empty_rows = [||]

let rows_matching tbl ~mask ~key =
  if mask <> 0 && mask = (1 lsl tbl.arity) - 1 then begin
    (* a ground atom: the row set answers it, no index needed *)
    match find_row tbl key with -1 -> empty_rows | row -> [| row |]
  end
  else begin
    match index_for tbl mask with
    | All rows -> rows
    | Keyed { first; groups; rest } ->
      let v = key.(0) in
      if v < 0 || v + 1 >= Array.length first then empty_rows
      else begin
        (* binary search, on the rest of the key, of the groups whose
           first bound position holds [v] *)
        let lo = ref first.(v) and hi = ref first.(v + 1) and found = ref empty_rows in
        while !lo < !hi do
          let mid = (!lo + !hi) lsr 1 in
          let c = compare_rest tbl rest groups.(mid).(0) key in
          if c = 0 then begin
            found := groups.(mid);
            lo := !hi
          end
          else if c < 0 then lo := mid + 1
          else hi := mid
        done;
        !found
      end
  end
