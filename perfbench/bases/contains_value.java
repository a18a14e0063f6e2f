static boolean containsValue(int[] arr, int n, int value) {
    for (int i = 0; i < n; i = i + 1) {
        if (arr[i] == value) {
            return true;
        }
    }
    return false;
}
