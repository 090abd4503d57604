(* Pull up to [n] elements; return them with the untouched remainder. *)
let take n seq =
  let rec go acc n seq = if n = 0 then (List.rev acc, seq) else match seq () with Seq.Nil -> (List.rev acc, Seq.empty) | Seq.Cons (x, rest) -> go (x :: acc) (n - 1) rest in
  go [] n seq

(* Without a pool: one item at a time on the calling domain, each mapped
   and folded before the next is pulled. *)
let map_fold_inline ~map ~fold ~init seq =
  let rec go acc seq =
    match seq () with
    | Seq.Nil -> Ok acc
    | Seq.Cons (x, rest) -> ( match fold acc (map x) with Ok acc -> go acc rest | Error _ as e -> e)
  in
  go init seq

let map_fold pool ?window ~map ~fold ~init seq =
  match pool with
  | None -> map_fold_inline ~map ~fold ~init seq
  | Some pool ->
      let window = match window with Some w -> max 1 w | None -> 4 * Pool.jobs pool in
      let rec wave acc seq =
        let items, rest = take window seq in
        match items with
        | [] -> Ok acc
        | _ -> (
            let mapped = Pool.map_ordered pool ~f:map items in
            let rec merge acc = function
              | [] -> wave acc rest
              | r :: tl -> ( match fold acc r with Ok acc -> merge acc tl | Error _ as e -> e)
            in
            merge acc mapped)
      in
      wave init seq
