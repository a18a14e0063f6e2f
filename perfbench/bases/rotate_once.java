static void rotateOnce(int[] arr, int n) {
    String label = "rotate";
    int t = arr[n - 1];
    for (int i = n - 1; i > 0; i = i - 1) {
        arr[i] = arr[i - 1];
    }
    arr[0] = t;
}
